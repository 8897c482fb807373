open Dvs_ir
open Dvs_machine

type path = {
  pred : Cfg.label option;
  node : Cfg.label;
  succ : Cfg.label;
}

type t = {
  cfg : Cfg.t;
  config : Config.t;
  exec_count : int array;
  edge_count : int array;
  entry_count : int;
  paths : (path * int) list;
  total_time : float array array;
  total_energy : float array array;
  runs : Cpu.run_stats array;
}

(* Structural counts straight from the tape's position stream.  A local
   path (pred, node, succ) is named by the edge its node was entered
   through (or the program entry) and the node's out-edge, which is one
   of at most two: key [(in_edge + 1) * 2 + out_slot], dense ints. *)
let count_structure cfg tape =
  let n_blocks = Cfg.num_blocks cfg in
  let edges = Cfg.edges cfg in
  let n_edges = Array.length edges in
  let exec_count = Array.make n_blocks 0 in
  let edge_count = Array.make n_edges 0 in
  let entry_count = ref 0 in
  let path_count = Array.make ((n_edges + 1) * 2) 0 in
  let first_seen = ref [] in
  let prev_label = ref (-1) and prev_in = ref (-1) in
  let vids = Array.make 256 0 and ins = Array.make 256 0 in
  let base = ref 0 and n = ref 1 in
  while !n > 0 do
    n := Tape.unpack tape ~pos:!base ~variants:vids ~edges:ins;
    for i = 0 to !n - 1 do
      let label = tape.Tape.variants.(vids.(i)).Tape.label in
      let e = ins.(i) in
      exec_count.(label) <- exec_count.(label) + 1;
      if e < 0 then incr entry_count
      else edge_count.(e) <- edge_count.(e) + 1;
      if !prev_label >= 0 then begin
        let out_slot = e - Cfg.first_out_edge cfg !prev_label in
        let key = ((!prev_in + 1) * 2) + out_slot in
        if path_count.(key) = 0 then first_seen := key :: !first_seen;
        path_count.(key) <- path_count.(key) + 1
      end;
      prev_label := label;
      prev_in := e
    done;
    base := !base + !n
  done;
  let path_of key =
    let e_in = (key / 2) - 1 in
    let pred, node =
      if e_in < 0 then (None, Cfg.entry cfg)
      else (Some edges.(e_in).Cfg.src, edges.(e_in).Cfg.dst)
    in
    let out = Cfg.first_out_edge cfg node + (key mod 2) in
    { pred; node; succ = edges.(out).Cfg.dst }
  in
  (* Distinct paths enter the table in first-seen order, as the
     per-block observer used to insert them, so [paths] (a fold over the
     table) keeps its order and stored profiles stay byte-identical. *)
  let path_tbl : (path, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun key -> Hashtbl.replace path_tbl (path_of key) path_count.(key))
    (List.rev !first_seen);
  ( exec_count, edge_count, !entry_count,
    Hashtbl.fold (fun p c acc -> (p, c) :: acc) path_tbl [] )

let counter obs name =
  Dvs_obs.Metrics.counter (Dvs_obs.metrics obs)
    ~stability:Dvs_obs.Metrics.Volatile name

let of_summary ?(obs = Dvs_obs.disabled) s =
  let config = Summary.config s and cfg = Summary.cfg s in
  let tape = Summary.tape s in
  let n_modes = Dvs_power.Mode.size config.Config.mode_table in
  let n_blocks = Cfg.num_blocks cfg in
  let exec_count, edge_count, entry_count, paths = count_structure cfg tape in
  let total_time = Array.make_matrix n_modes n_blocks 0.0 in
  let total_energy = Array.make_matrix n_modes n_blocks 0.0 in
  let no_edge_modes = Array.make (Summary.n_edges s) None in
  let runs =
    Array.init n_modes (fun m ->
        (* Per-block attribution for the pinned schedule: each block is
           charged from its entry to the next block's entry. *)
        let last = ref (-1) and mark = [| 0.0; 0.0 |] in
        let charge_last ~time ~energy =
          let j = !last in
          if j >= 0 then begin
            total_time.(m).(j) <- total_time.(m).(j) +. (time -. mark.(0));
            total_energy.(m).(j) <-
              total_energy.(m).(j) +. (energy -. mark.(1))
          end
        in
        let observer label ~via:_ ~time ~energy =
          charge_last ~time ~energy;
          last := label;
          mark.(0) <- time;
          mark.(1) <- energy
        in
        let r =
          (Summary.replay ~observer s ~entry_mode:m ~edge_mode:no_edge_modes)
            .Summary.stats
        in
        (* Attribute the tail (last block entry to end of run). *)
        charge_last ~time:r.Cpu.time ~energy:r.Cpu.energy;
        r)
  in
  if Dvs_obs.enabled obs then
    Dvs_obs.Metrics.Counter.add (counter obs "profile.replays") ~slot:0 n_modes;
  { cfg; config; exec_count; edge_count; entry_count; paths; total_time;
    total_energy; runs }

let collect ?fuel ?(obs = Dvs_obs.disabled) config cfg ~memory =
  Dvs_obs.Trace.with_span (Dvs_obs.trace obs) "profile.collect" (fun () ->
      (* The recording itself is uninstrumented: its stable sim.* output
         would make a profiled run differ from one answered by a store. *)
      let s = Summary.create ?fuel config cfg ~memory in
      if Dvs_obs.enabled obs then
        Dvs_obs.Metrics.Counter.incr (counter obs "profile.recordings")
          ~slot:0;
      of_summary ~obs s)

let block_time p ~mode j =
  if p.exec_count.(j) = 0 then 0.0
  else p.total_time.(mode).(j) /. float_of_int p.exec_count.(j)

let block_energy p ~mode j =
  if p.exec_count.(j) = 0 then 0.0
  else p.total_energy.(mode).(j) /. float_of_int p.exec_count.(j)

let g_of_edge p e = p.edge_count.(Cfg.edge_index p.cfg e)

let pinned_time p ~mode = p.runs.(mode).Cpu.time

let pinned_energy p ~mode = p.runs.(mode).Cpu.energy

let pp_summary ppf p =
  let n_modes = Array.length p.runs in
  Format.fprintf ppf "@[<v>%d blocks, %d edges, %d paths@,"
    (Cfg.num_blocks p.cfg)
    (Array.length (Cfg.edges p.cfg))
    (List.length p.paths);
  for m = 0 to n_modes - 1 do
    let r = p.runs.(m) in
    Format.fprintf ppf "mode %d: %.3f ms, %.1f uJ, %d instrs@," m
      (r.Cpu.time *. 1e3) (r.Cpu.energy *. 1e6) r.Cpu.dyn_instrs
  done;
  Format.fprintf ppf "@]"
