(* The end-to-end benchmark: run one workload for a fixed time, check
   every output, print every metric with its unit, and end with one JSON
   result line.  See perfbench/README.md.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--size full|tiny] [--answers FILE] [--write-answers FILE]

   Exit codes: 0 when every check held, 1 when a check failed (the
   result line says correct=false), 2 on a usage or set-up error (no
   result line). *)

open Common

let workloads = [ "grid-unfiltered"; "multi-input"; "service-closed"; "warm-store" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 \
     [--size full|tiny] [--answers FILE] [--write-answers FILE]";
  prerr_endline ("workloads: " ^ String.concat ", " workloads);
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  size : size;
  answers_path : string;
  write_answers : string option;
}

let parse argv =
  let a =
    ref
      { workload = ""; seed = 1; seconds = 10.0; trace = false; size = Full;
        answers_path = Answers.default_path; write_answers = None }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> a := { !a with workload = v }; go rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with
      | Some s -> a := { !a with seed = s }
      | None -> usage ());
      go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0.0 -> a := { !a with seconds = s }
      | _ -> usage ());
      go rest
    | "--trace" :: v :: rest ->
      (match v with
      | "0" -> a := { !a with trace = false }
      | "1" -> a := { !a with trace = true }
      | _ -> usage ());
      go rest
    | "--size" :: v :: rest ->
      (match v with
      | "full" -> a := { !a with size = Full }
      | "tiny" -> a := { !a with size = Tiny }
      | _ -> usage ());
      go rest
    | "--answers" :: v :: rest -> a := { !a with answers_path = v }; go rest
    | "--write-answers" :: v :: rest ->
      a := { !a with write_answers = Some v }; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  !a

let run_workload ~size ~seed ~seconds ~traced ~answers name =
  match name with
  | "grid-unfiltered" ->
    Batch.run ~size ~seed ~seconds ~traced (Batch.grid ~size ~answers)
  | "multi-input" ->
    Batch.run ~size ~seed ~seconds ~traced (Batch.multi ~size ~answers)
  | "warm-store" ->
    Batch.run ~size ~seed ~seconds ~traced (Batch.warm_store ~size ~answers)
  | "service-closed" -> Service.run ~size ~seed ~seconds ~traced ~answers
  | _ -> usage ()

(* ---- metrics --------------------------------------------------------- *)

(* The end-to-end times arrive scaled to the reference host ([Host]);
   the per-layer times come from the traced run's spans, unscaled, with
   the run's median scale factor beside them as [host.speed]. *)

let end_to_end (m : measured) =
  let by_key = Hashtbl.create 64 in
  List.iter (fun (k, s) -> Hashtbl.replace by_key k s) m.savings;
  [ ("setup_s", Util.median m.setup_s, "s");
    ("points_per_s", m.points_per_s, "1/s");
    ("compile_s_p50", m.op_p50_s, "s");
    ("cpu_s_per_point", m.cpu_per_point, "s");
    ( "savings_pct_mean",
      Util.mean (Hashtbl.fold (fun _ s acc -> s :: acc) by_key []),
      "%" );
    ("energy_error_pct_max", Util.max_list m.errors, "%");
    ("peak_rss_mb", Util.peak_rss_mb (), "MB");
    ("req_per_s", m.ops_per_s, "1/s");
    ("latency_ms_p50", m.lat_p50_ms, "ms");
    ("latency_ms_p99", m.lat_p99_ms, "ms") ]

(* Work and time per verified deadline point of the traced run, so the
   figures do not depend on how many passes fit in the run. *)
let per_layer (m : measured) raw =
  let g = Raw.get raw in
  let pts = Float.max 1.0 (g "points") in
  let per k = g k /. pts in
  let c k = g ("c." ^ k) in
  let cp k = c k /. pts in
  let sum ks = List.fold_left (fun a k -> a +. c k) 0.0 ks in
  let store_hits = sum [ "store.sim_hits"; "store.solve_hits"; "store.sweep_hits" ] in
  let store_misses =
    sum [ "store.sim_misses"; "store.solve_misses"; "store.sweep_misses" ]
  in
  let warm_share =
    if c "sweep.points" > 0.0 then
      ratio (c "sweep.instances_warm_started") (c "sweep.points")
    else ratio (g "warm_events") (c "solver.solves")
  in
  [ ("milp.solve_s", per "self.milp", "s/point");
    ("milp.solves", cp "solver.solves", "count/point");
    ("milp.nodes", cp "solver.nodes", "count/point");
    ("milp.lp_solves", cp "solver.lp_solves", "count/point");
    ("milp.cuts_applied", cp "cuts.applied", "count/point");
    ("milp.points_pruned_by_bound", cp "sweep.points_pruned_by_bound", "count/point");
    ("milp.warm_started_share", warm_share, "ratio");
    ( "milp.lp_cache_hit_rate",
      ratio (c "lp_cache.hits") (c "lp_cache.hits" +. c "lp_cache.misses"),
      "ratio" );
    ("lp.pivots", cp "solver.lp_pivots", "count/point");
    ("lp.flops", cp "lp.flops", "count/point");
    ("lp.pivots_saved_warm", cp "lp.pivots_saved_warm", "count/point");
    ("lu.refactorizations", cp "lu.refactorizations", "count/point");
    ("lp.presolve_rows_removed", cp "lp.presolve_rows_removed", "count/point");
    ("profile.collect_s", per "self.profile", "s/point");
    ("profile.sim_runs", per "sim_runs", "count/point");
    ("verify.record_s", per "self.verify.record", "s/point");
    ("verify.check_s", per "self.verify.check", "s/point");
    ("verify.summary_hits", cp "sim.summary_hits", "count/point");
    ( "verify.summary_hit_rate",
      ratio (c "sim.summary_hits") (c "sim.summary_hits" +. c "sim.summary_misses"),
      "ratio" );
    ("verify.spliced_segments", cp "sim.spliced_segments", "count/point");
    ("dvs.optimize_s", per "incl.dvs", "s/point");
    ("dvs.other_s", per "self.dvs", "s/point");
    ("dvs.independent_edges", ratio (g "edges_sum") (g "edges_n"), "count");
    ("store.read_s", per "self.store", "s/point");
    ("store.hits", store_hits /. pts, "count/point");
    ("store.misses", store_misses /. pts, "count/point");
    ("store.hit_rate", ratio store_hits (store_hits +. store_misses), "ratio");
    ("store.bytes", g "store_bytes", "B");
    ("store.corrupt", c "store.corrupt", "count");
    ("service.queue_ms_mean", g "service.queue_ms_mean", "ms");
    ("service.server_ms_mean", g "service.server_ms_mean", "ms");
    ( "service.transport_ms_mean",
      (if g "service.client_ms_mean" > 0.0 then
         g "service.client_ms_mean" -. g "service.server_ms_mean"
       else 0.0),
      "ms" );
    ("service.batched_fraction", g "service.batched_fraction", "ratio");
    ("service.cache_replies", cp "service.cache_replies", "count/point");
    ("lang.load_s", Util.median m.compile_s, "s");
    ("unattributed_s", per "self.unattributed", "s/point");
    ( "trace.overhead_pct",
      100.0 *. (ratio (g "traced_wall") (g "untraced_wall") -. 1.0),
      "%" );
    ("trace.dropped", g "dropped", "count");
    ("host.speed", Util.median m.speeds, "ratio") ]

(* The ledger: layer self time per verified point, closing on the op
   wall (batch) or the client-observed latency (service). *)
let print_ledger ~workload raw =
  let g = Raw.get raw in
  let pts = Float.max 1.0 (g "points") in
  let self l = g ("self." ^ l) /. pts in
  let rows =
    [ ("milp", self "milp"); ("profile", self "profile");
      ("verify.record", self "verify.record");
      ("verify.check", self "verify.check");
      ("store", self "store"); ("dvs", self "dvs") ]
    @ (if workload = Service.workload then
         [ ("service.queue", self "service.queue");
           ("service.transport", self "service.transport") ]
       else [])
    @ [ ("unattributed", self "unattributed") ]
  in
  let c k = g ("c." ^ k) /. pts in
  Ledger.print_table ~title:workload ~per:"point"
    ~counts:
      [ ("milp", "nodes", c "solver.nodes"); ("milp", "lp_solves", c "solver.lp_solves");
        ("milp", "lp_pivots", c "solver.lp_pivots");
        ("profile", "sim_runs", g "sim_runs" /. pts);
        ("verify.check", "summary_hits", c "sim.summary_hits");
        ("store", "hits",
         c "store.sim_hits" +. c "store.solve_hits" +. c "store.sweep_hits") ]
    rows

let print_metrics ms =
  List.iter (fun (n, v, u) -> Printf.printf "%-30s %16.6f %s\n" n v u) ms

let main () =
  let a = parse Sys.argv in
  let answers =
    match a.write_answers with
    | Some _ -> Checks.Write
    | None -> (
      match Answers.load a.answers_path with
      | Ok t -> Checks.Check t
      | Error e ->
        prerr_endline ("perfbench: known answers: " ^ e);
        exit 2)
  in
  match a.write_answers with
  | Some path ->
    (* One pass of every workload at full size records every point. *)
    List.iter
      (fun w ->
        let m, _ =
          run_workload ~size:Full ~seed:a.seed ~seconds:1e-3 ~traced:false
            ~answers w
        in
        Printf.printf "%s: %d ops, %d points\n%!" w m.attempted m.points;
        (* Every other check must hold before the objectives are kept. *)
        if m.problems <> [] then begin
          List.iter (fun p -> prerr_endline ("check failed: " ^ p)) m.problems;
          exit 1
        end)
      workloads;
    Answers.write path
  | None ->
    if not (List.mem a.workload workloads) then usage ();
    let m, raw =
      run_workload ~size:a.size ~seed:a.seed ~seconds:a.seconds
        ~traced:a.trace ~answers a.workload
    in
    let metrics =
      if a.trace then begin
        print_ledger ~workload:a.workload raw;
        per_layer m raw
      end
      else end_to_end m
    in
    Printf.printf "host speed factor, median over %d timed regions: %.4f\n"
      (List.length m.speeds) (Util.median m.speeds);
    print_metrics metrics;
    let correct = m.problems = [] in
    List.iteri
      (fun i p -> if i < 20 then prerr_endline ("check failed: " ^ p))
      m.problems;
    print_endline
      (Util.result_line ~correct ~attempted:m.attempted ~failed:m.failed
         metrics);
    exit (if correct then 0 else 1)

let () = main ()
