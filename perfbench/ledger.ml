(* The per-layer ledger: splits an op's wall time into layer self times
   from the spans of one traced run.

   The benchmark records its own spans around its calls into each
   layer; the program records [pipeline.sweep], [solver.solve],
   [pipeline.verify] and [sim.run].  A trace clamps each entry's start
   to the last one recorded in the same slot, so an enclosing span's
   start is not reliable, but every duration is: the ledger is built
   from durations and from the call structure the benchmark knows.
   Unattributed time is the op wall minus the layer spans the benchmark
   recorded, so the rows always add up to the op wall. *)

module Tr = Dvs_obs.Trace

(* The benchmark's spans go to their own slot, so the program's entries
   never shift their start. *)
let slot = 63

type spans = (string, (float * float) list) Hashtbl.t
(* name -> (recorded start, duration) *)

let spans_of entries : spans =
  let h = Hashtbl.create 16 in
  List.iter
    (fun (e : Tr.entry) ->
      match e.Tr.dur with
      | Some d ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt h e.Tr.name) in
        Hashtbl.replace h e.Tr.name ((e.Tr.ts, d) :: prev)
      | None -> ())
    entries;
  h

let find (sp : spans) name = Option.value ~default:[] (Hashtbl.find_opt sp name)

(* Summed durations of the spans with this name (inclusive time),
   optionally only those recorded inside [(lo, hi)]: a recorded start
   always lies inside the span's true interval. *)
let total ?window (sp : spans) name =
  List.fold_left
    (fun acc (ts, d) ->
      match window with
      | Some (lo, hi) when ts < lo || ts > hi -> acc
      | _ -> acc +. d)
    0.0 (find sp name)

(* How a batch workload calls the dvs layer, which fixes how its
   optimize time splits. *)
type path =
  | Sweep  (** Pipeline.optimize_sweep: solve inside [pipeline.sweep] *)
  | Multi  (** Pipeline.optimize_multi: [solver.solve] + [pipeline.verify] *)
  | Store  (** Dvs_store.Exec replaying hits: no solve, no verification *)

(* Layer self seconds of a traced pass of batch ops.  [prepare] is the
   time the formulation rebuild takes, measured beside each op: the
   sweep engine and a store hit both run it without a span of their
   own. *)
let batch ~path ~prepare (sp : spans) =
  let t = total sp in
  let op = t "bench.op" in
  let profile = t "profile.collect" and record = t "verify.record" in
  let optimize = t "dvs.optimize" and store = t "store.optimize" in
  let milp, check, other, store_self =
    match path with
    | Sweep ->
      let milp = t "pipeline.sweep" in
      (milp, optimize -. milp -. prepare, prepare, 0.0)
    | Multi ->
      let milp = t "solver.solve" and check = t "pipeline.verify" in
      (milp, check, optimize -. milp -. check, 0.0)
    | Store -> (0.0, 0.0, prepare, t "store.profile" +. store -. prepare)
  in
  [ ("milp", milp); ("profile", profile); ("verify.record", record);
    ("verify.check", check); ("store", store_self); ("dvs", other);
    ( "unattributed",
      op -. profile -. record -. optimize -. store -. t "store.profile" ) ]

let print_table ~title ~per ~counts rows =
  let wall = List.fold_left (fun a (_, v) -> a +. v) 0.0 rows in
  Printf.printf "ledger %s (self seconds per %s; traced)\n" title per;
  Printf.printf "  %-18s %12s %7s  %s\n" "layer" "self_s" "share" "counts";
  List.iter
    (fun (layer, v) ->
      let share = if wall > 0.0 then 100.0 *. v /. wall else 0.0 in
      let cs =
        List.filter_map
          (fun (l, name, c) ->
            if l = layer then Some (Printf.sprintf "%s=%.6g" name c) else None)
          counts
      in
      Printf.printf "  %-18s %12.6f %6.1f%%  %s\n" layer v share
        (String.concat " " cs))
    rows;
  Printf.printf "  %-18s %12.6f %6.1f%%\n" "total" wall 100.0
