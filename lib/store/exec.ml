module Json = Dvs_obs.Json
module Profile = Dvs_profile.Profile
module Pipeline = Dvs_core.Pipeline
module Formulation = Dvs_core.Formulation
module Solver = Dvs_milp.Solver

(* ---- cacheability ----------------------------------------------------- *)

(* A result may be stored only when recomputing it under the same key
   would reproduce it: wall-clock stops and contained crashes depend on
   machine load and scheduling, so they stay live. *)
let deterministic_outcome = function
  | Solver.Optimal | Solver.Infeasible | Solver.Unbounded -> true
  | Solver.Feasible r | Solver.No_solution r -> r <> Solver.Time_limit
  | Solver.Degraded _ -> false

let storable_result (r : Pipeline.result) =
  deterministic_outcome r.Pipeline.milp.Solver.outcome
  && List.for_all
       (fun (d : Pipeline.descent) ->
         d.Pipeline.cause <> Pipeline.Worker_crash)
       r.Pipeline.descents

let solver_cacheable (c : Solver.Config.t) = c.Solver.Config.fault = None

(* ---- sim: profiles ---------------------------------------------------- *)

let profile ?store ?fuel ?obs ?recording ~source machine cfg ~memory =
  let collect () =
    match recording with
    | Some r -> Profile.of_summary ?obs (Lazy.force r)
    | None -> Profile.collect ?fuel ?obs machine cfg ~memory
  in
  match store with
  | None -> collect ()
  | Some st -> (
    let key =
      Key.make ~kind:"sim"
        (("source", Key.S source)
         :: ("memory", Key.S (Codec.memory_fingerprint memory))
         :: ( "fuel",
              match fuel with
              | None -> Key.L []
              | Some f -> Key.L [ Key.I f ] )
         :: Codec.machine_components ~prefix:"m." machine)
    in
    match
      Store.get st key ~decode:(Codec.profile_of_json ~cfg ~config:machine)
    with
    | Some p -> p
    | None ->
      let p = collect () in
      Store.put st key (Codec.profile_to_json p);
      p)

(* ---- shared solve/sweep plumbing -------------------------------------- *)

let category_components categories =
  List.concat
    (List.mapi
       (fun i (c : Formulation.category) ->
         let p n = Printf.sprintf "cat%d.%s" i n in
         [ (p "profile", Key.S (Codec.profile_fingerprint c.Formulation.profile));
           (p "weight", Key.F c.Formulation.weight);
           (p "deadline", Key.F c.Formulation.deadline) ])
       categories)

(* Payloads pair the result essence with the stable-counter deltas the
   computation produced, so a hit can replay both. *)
let payload_with_counters body counters =
  Json.Obj
    [ ("essence", body); ("counters", Capture.to_json counters) ]

let decode_with_counters decode_body j =
  match (Json.member "essence" j, Json.member "counters" j) with
  | Some body, Some counters ->
    Result.bind (decode_body body) (fun e ->
        Result.map (fun cs -> (e, cs)) (Capture.of_json counters))
  | _ -> Error "payload: missing essence or counters"

let capture_around obs f =
  let before = Capture.state obs in
  let r = f () in
  let after = Capture.state obs in
  (r, Capture.diff ~before ~after)

(* The store protocol shared by solves and sweeps: compose the key (the
   caller's components, then every pipeline and solver setting), then on
   a hit replay the stored counters and rehydrate the essence, and on a
   miss run, capture the counter deltas and store a storable result.
   [components] is forced only when a store is consulted. *)
let through_store ?store ~(config : Pipeline.Config.t) ~kind ~components
    ~decode ~rehydrate ~encode ~storable run =
  match store with
  | None -> run ()
  | Some _ when not (solver_cacheable config.Pipeline.Config.solver) ->
    run ()
  | Some st -> (
    let key =
      Key.make ~kind
        (List.concat
           [ components ();
             Codec.pipeline_components config;
             Codec.solver_components config.Pipeline.Config.solver ])
    in
    let obs = Pipeline.Config.obs config in
    match Store.get st key ~decode:(decode_with_counters decode) with
    | Some (essence, counters) ->
      Capture.replay obs counters;
      rehydrate essence
    | None ->
      let r, counters = capture_around obs run in
      if storable r then
        Store.put st key (payload_with_counters (encode r) counters);
      r)

(* ---- solve: optimize_multi -------------------------------------------- *)

let optimize_multi ?store ?config ?verify_config ?session ~regulator ~memory
    categories =
  let config =
    match config with Some c -> c | None -> Pipeline.Config.default
  in
  let components () =
    let vconfig =
      match verify_config with
      | Some c -> c
      | None -> (List.hd categories).Formulation.profile.Profile.config
    in
    List.concat
      [ [ ("ncats", Key.I (List.length categories));
          ("regulator", Codec.regulator_component regulator);
          ("memory", Key.S (Codec.memory_fingerprint memory)) ];
        category_components categories;
        Codec.machine_components ~prefix:"vm." vconfig ]
  in
  let rehydrate essence =
    let prep = Pipeline.prepare ~config ~regulator categories in
    Codec.result_of_essence ~categories
      ~formulation:prep.Pipeline.prep_formulation
      ~independent_edges:prep.Pipeline.prep_independent_edges essence
  in
  through_store ?store ~config ~kind:"solve" ~components
    ~decode:Codec.essence_of_json ~rehydrate
    ~encode:(fun r -> Codec.essence_to_json (Codec.essence_of_result r))
    ~storable:storable_result
    (fun () ->
      Pipeline.optimize_multi ~config ?verify_config
        ?session:(Option.map (fun f -> f ()) session)
        ~regulator ~memory categories)

(* ---- sweep: optimize_sweep -------------------------------------------- *)

let optimize_sweep ?store ?config ?verify_config ~profile ?session machine
    cfg ~memory ~deadlines =
  let config =
    match config with Some c -> c | None -> Pipeline.Config.default
  in
  let components () =
    let vconfig =
      match verify_config with
      | Some c -> c
      | None -> profile.Profile.config
    in
    List.concat
      [ [ ("profile", Key.S (Codec.profile_fingerprint profile));
          ( "deadlines",
            Key.L (Array.to_list deadlines |> List.map (fun d -> Key.F d)) );
          ("memory", Key.S (Codec.memory_fingerprint memory)) ];
        Codec.machine_components ~prefix:"m." machine;
        Codec.machine_components ~prefix:"vm." vconfig ]
  in
  let decode j =
    Result.bind (Codec.sweep_of_json j) (fun (sw : Codec.sweep_essence) ->
        if Array.length sw.Codec.se_points <> Array.length deadlines then
          Error "sweep: point count does not match deadlines"
        else Ok sw)
  in
  let rehydrate (sw : Codec.sweep_essence) =
    let regulator = machine.Dvs_machine.Config.regulator in
    let category d = { Formulation.profile; weight = 1.0; deadline = d } in
    let d_loosest = Array.fold_left Float.max Float.neg_infinity deadlines in
    let prep = Pipeline.prepare ~config ~regulator [ category d_loosest ] in
    { Pipeline.results =
        Array.mapi
          (fun i e ->
            Codec.result_of_essence
              ~categories:[ category deadlines.(i) ]
              ~formulation:prep.Pipeline.prep_formulation
              ~independent_edges:prep.Pipeline.prep_independent_edges e)
          sw.Codec.se_points;
      sweep = sw.Codec.se_stats }
  in
  let encode (r : Pipeline.sweep_result) =
    Codec.sweep_to_json
      { Codec.se_points = Array.map Codec.essence_of_result r.Pipeline.results;
        se_stats = r.Pipeline.sweep }
  in
  through_store ?store ~config ~kind:"sweep" ~components ~decode ~rehydrate
    ~encode
    ~storable:(fun r -> Array.for_all storable_result r.Pipeline.results)
    (fun () ->
      Pipeline.optimize_sweep ~config ?verify_config ~profile
        ?session:(Option.map (fun f -> f ()) session)
        machine cfg ~memory ~deadlines)
