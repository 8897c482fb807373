let deadline_tolerance = 0.005

type report = {
  stats : Dvs_machine.Cpu.run_stats;
  deadline : float;
  meets_deadline : bool;
  predicted_energy : float;
  energy_error : float;
  token : int;
}

let make_report stats ~deadline ~predicted_energy ~token =
  let meets_deadline =
    stats.Dvs_machine.Cpu.time <= deadline *. (1.0 +. deadline_tolerance)
  in
  let energy_error =
    if predicted_energy > 0.0 then
      Float.abs (stats.Dvs_machine.Cpu.energy -. predicted_energy)
      /. predicted_energy
    else 0.0
  in
  { stats; deadline; meets_deadline; predicted_energy; energy_error; token }

let simulate ?fuel ?obs config cfg ~memory ~schedule =
  let rc =
    Dvs_machine.Cpu.Run_config.make ?fuel ?obs
      ~initial_mode:schedule.Schedule.entry_mode
      ~edge_modes:(Schedule.edge_modes schedule cfg)
      ()
  in
  Dvs_machine.Cpu.run ~rc config cfg ~memory

module Session = struct
  type t =
    | Cold of {
        config : Dvs_machine.Config.t;
        cfg : Dvs_ir.Cfg.t;
        memory : int array;
        fuel : int option;
      }
    | Warm of Dvs_machine.Summary.t

  let create ?fuel ?(cold = false) ?obs config cfg ~memory =
    if cold then Cold { config; cfg; memory = Array.copy memory; fuel }
    else Warm (Dvs_machine.Summary.create ?fuel ?obs config cfg ~memory)

  let of_summary s = Warm s

  let cold = function Cold _ -> true | Warm _ -> false

  let edge_mode_of schedule =
    Array.map Option.some schedule.Schedule.edge_mode

  let check ?obs t ~schedule ~deadline ~predicted_energy =
    match t with
    | Cold { config; cfg; memory; fuel } ->
      let stats = simulate ?fuel ?obs config cfg ~memory ~schedule in
      make_report stats ~deadline ~predicted_energy ~token:0
    | Warm s ->
      let r =
        Dvs_machine.Summary.replay ?obs s
          ~entry_mode:schedule.Schedule.entry_mode
          ~edge_mode:(edge_mode_of schedule)
      in
      make_report r.Dvs_machine.Summary.stats ~deadline ~predicted_energy
        ~token:r.Dvs_machine.Summary.token

  let check_incremental ?obs t ~against ~schedule ~deadline ~predicted_energy
      =
    match t with
    | Warm s when against.token <> 0 ->
      let r =
        Dvs_machine.Summary.replay_incremental ?obs s ~against:against.token
          ~entry_mode:schedule.Schedule.entry_mode
          ~edge_mode:(edge_mode_of schedule)
      in
      make_report r.Dvs_machine.Summary.stats ~deadline ~predicted_energy
        ~token:r.Dvs_machine.Summary.token
    | _ -> check ?obs t ~schedule ~deadline ~predicted_energy
end
