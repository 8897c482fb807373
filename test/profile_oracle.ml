(* The cycle-accurate profile collector: one full pinned Cpu.run per
   mode, with structural counts from a block-entry observer on the
   mode-0 run.  Dvs_profile.Profile derives the same profile from one
   recording by tape replay; this literal reading of the paper's
   Section 5.1 procedure is kept here as its oracle. *)

open Dvs_ir
open Dvs_machine
module Profile = Dvs_profile.Profile

let collect ?fuel config cfg ~memory =
  let n_modes = Dvs_power.Mode.size config.Config.mode_table in
  let n_blocks = Cfg.num_blocks cfg in
  let n_edges = Array.length (Cfg.edges cfg) in
  let exec_count = Array.make n_blocks 0 in
  let edge_count = Array.make n_edges 0 in
  let entry_count = ref 0 in
  let path_tbl : (Profile.path, int) Hashtbl.t = Hashtbl.create 64 in
  let total_time = Array.make_matrix n_modes n_blocks 0.0 in
  let total_energy = Array.make_matrix n_modes n_blocks 0.0 in
  let runs =
    Array.init n_modes (fun m ->
        let last : (Cfg.label * float * float) option ref = ref None in
        (* Logical behavior is frequency-invariant (assumption 1), so
           the structure is counted on the mode-0 run only. *)
        let count_structural = m = 0 in
        let prev_block : Cfg.label option ref = ref None in
        let prev_prev : Cfg.label option ref = ref None in
        let observer label ~via ~time ~energy =
          (match !last with
          | Some (j, t0, e0) ->
            total_time.(m).(j) <- total_time.(m).(j) +. (time -. t0);
            total_energy.(m).(j) <- total_energy.(m).(j) +. (energy -. e0)
          | None -> ());
          last := Some (label, time, energy);
          if count_structural then begin
            exec_count.(label) <- exec_count.(label) + 1;
            (match via with
            | Some src ->
              let idx = Cfg.edge_index cfg { Cfg.src; dst = label } in
              edge_count.(idx) <- edge_count.(idx) + 1
            | None -> incr entry_count);
            (match !prev_block with
            | Some i ->
              let p =
                { Profile.pred = !prev_prev; node = i; succ = label }
              in
              let cur =
                Option.value ~default:0 (Hashtbl.find_opt path_tbl p)
              in
              Hashtbl.replace path_tbl p (cur + 1)
            | None -> ());
            prev_prev := !prev_block;
            prev_block := Some label
          end
        in
        let rc = Cpu.Run_config.make ?fuel ~initial_mode:m ~observer () in
        let r = Cpu.run ~rc config cfg ~memory in
        (match !last with
        | Some (j, t0, e0) ->
          total_time.(m).(j) <- total_time.(m).(j) +. (r.Cpu.time -. t0);
          total_energy.(m).(j) <- total_energy.(m).(j) +. (r.Cpu.energy -. e0)
        | None -> ());
        r)
  in
  { Profile.cfg; config; exec_count; edge_count;
    entry_count = !entry_count;
    paths = Hashtbl.fold (fun p c acc -> (p, c) :: acc) path_tbl [];
    total_time; total_energy; runs }
