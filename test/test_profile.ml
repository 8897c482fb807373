(* Profiling suite: the tape-replay collector (one recording, one pinned
   replay per mode) must equal the cycle-accurate one-run-per-mode
   collector of Profile_oracle bit for bit — counts, local-path list
   order (it fixes stored payload bytes), per-block time/energy and
   every run_stats field — over every workload input and several mode
   tables.  Also: the recorder's packed position stream, Cfg's edge
   lookup, fuel exhaustion and the collector's instruments. *)

module Cfg = Dvs_ir.Cfg
module Cpu = Dvs_machine.Cpu
module Config = Dvs_machine.Config
module Tape = Dvs_machine.Tape
module Profile = Dvs_profile.Profile
module W = Dvs_workloads.Workload

let bits = Int64.bits_of_float

let check_same what (expected : Profile.t) (actual : Profile.t) =
  if expected.Profile.exec_count <> actual.Profile.exec_count then
    Alcotest.failf "%s: exec_count differs" what;
  if expected.Profile.edge_count <> actual.Profile.edge_count then
    Alcotest.failf "%s: edge_count differs" what;
  Alcotest.(check int) (what ^ ": entry_count") expected.Profile.entry_count
    actual.Profile.entry_count;
  (* Same paths, same counts, same list order. *)
  if expected.Profile.paths <> actual.Profile.paths then
    Alcotest.failf "%s: paths differ (%d vs %d entries)" what
      (List.length expected.Profile.paths)
      (List.length actual.Profile.paths);
  let same_bits name e a =
    Array.iteri
      (fun m row ->
        Array.iteri
          (fun j x ->
            if bits x <> bits a.(m).(j) then
              Alcotest.failf "%s: %s.(%d).(%d) differs: %.17g vs %.17g" what
                name m j x a.(m).(j))
          row)
      e
  in
  same_bits "total_time" expected.Profile.total_time actual.Profile.total_time;
  same_bits "total_energy" expected.Profile.total_energy
    actual.Profile.total_energy;
  Alcotest.(check int) (what ^ ": runs") (Array.length expected.Profile.runs)
    (Array.length actual.Profile.runs);
  Array.iteri
    (fun m r ->
      Test_summary.check_stats
        (Printf.sprintf "%s mode %d" what m)
        r actual.Profile.runs.(m))
    expected.Profile.runs

let machine_of_levels = function
  | 3 -> W.eval_config ()
  | n ->
    W.eval_config
      ~mode_table:
        (Dvs_power.Mode.levels
           ~v_lo:
             (Dvs_power.Alpha_power.voltage Dvs_power.Alpha_power.default
                200e6)
           ~v_hi:1.65 n)
      ()

let test_matches_oracle () =
  List.iter
    (fun levels ->
      let machine = machine_of_levels levels in
      List.iter
        (fun (w : W.t) ->
          List.iter
            (fun input ->
              let cfg, _, memory = W.load w ~input in
              let what =
                Printf.sprintf "%s:%s %d levels" w.W.name input levels
              in
              check_same what
                (Profile_oracle.collect machine cfg ~memory)
                (Profile.collect machine cfg ~memory))
            w.W.inputs)
        W.all)
    [ 3; 4; 7 ]

(* Fuel bounds executed blocks; the block count does not depend on the
   mode, so one recording runs out exactly where the pinned runs did. *)
let test_fuel () =
  let w = W.find "ghostscript" in
  let cfg, _, memory = W.load w ~input:(W.default_input w) in
  let machine = W.eval_config () in
  let p = Profile.collect machine cfg ~memory in
  let blocks = Array.fold_left ( + ) 0 p.Profile.exec_count in
  let raises f =
    match f () with _ -> false | exception Cpu.Out_of_fuel -> true
  in
  List.iter
    (fun (fuel, expect) ->
      Alcotest.(check bool)
        (Printf.sprintf "oracle, fuel %d" fuel)
        expect
        (raises (fun () -> Profile_oracle.collect ~fuel machine cfg ~memory));
      Alcotest.(check bool)
        (Printf.sprintf "tape replay, fuel %d" fuel)
        expect
        (raises (fun () -> Profile.collect ~fuel machine cfg ~memory)))
    [ (blocks - 1, true); (blocks, false); (1, true) ]

let test_pack_rejects () =
  let rejects f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  (* 5 edges: the edge field holds 0..5 (3 bits), variants get 29. *)
  let pack = Tape.pack ~n_edges:5 in
  Alcotest.(check bool) "largest variant fits" false
    (rejects (fun () -> pack ~variant:((1 lsl 29) - 1) ~edge:4));
  Alcotest.(check bool) "variant overflow" true
    (rejects (fun () -> pack ~variant:(1 lsl 29) ~edge:0));
  Alcotest.(check bool) "negative variant" true
    (rejects (fun () -> pack ~variant:(-1) ~edge:0));
  Alcotest.(check bool) "entry position" false
    (rejects (fun () -> pack ~variant:0 ~edge:(-1)));
  Alcotest.(check bool) "edge past the CFG" true
    (rejects (fun () -> pack ~variant:0 ~edge:5));
  Alcotest.(check bool) "edge below entry" true
    (rejects (fun () -> pack ~variant:0 ~edge:(-2)));
  Alcotest.(check bool) "words fit 32 bits" true
    (pack ~variant:((1 lsl 29) - 1) ~edge:4 < 1 lsl 32)

(* A recorded tape's positions decode to the blocks and edges actually
   run: each position's variant label is the entered block, and its
   edge leads there from the previous position's block.  The tape spans
   several stream chunks, and a batch is cut short at its end. *)
let test_tape_positions () =
  let w = W.find "mpeg" in
  let cfg, _, memory = W.load w ~input:(W.default_input w) in
  let s = Dvs_machine.Summary.create (W.eval_config ()) cfg ~memory in
  let tape = Dvs_machine.Summary.tape s in
  let n = Tape.positions tape in
  let variants = Array.make n 0 and edges = Array.make n 0 in
  Alcotest.(check int) "every position" n
    (Tape.unpack tape ~pos:0 ~variants ~edges);
  let label p = tape.Tape.variants.(variants.(p)).Tape.label in
  Alcotest.(check int) "entry block" (Cfg.entry cfg) (label 0);
  Alcotest.(check int) "entry edge" (-1) edges.(0);
  for p = 1 to n - 1 do
    let edge = (Cfg.edges cfg).(edges.(p)) in
    if edge.Cfg.src <> label (p - 1) || edge.Cfg.dst <> label p then
      Alcotest.failf "position %d: edge %d is not %d -> %d" p edges.(p)
        (label (p - 1)) (label p)
  done;
  let tail_v = Array.make 8 0 and tail_e = Array.make 8 0 in
  Alcotest.(check int) "short last batch" 3
    (Tape.unpack tape ~pos:(n - 3) ~variants:tail_v ~edges:tail_e);
  Alcotest.(check (list int)) "last batch variants"
    (Array.to_list (Array.sub variants (n - 3) 3))
    (Array.to_list (Array.sub tail_v 0 3));
  Alcotest.(check int) "past the end" 0
    (Tape.unpack tape ~pos:n ~variants:tail_v ~edges:tail_e)

let test_edge_index () =
  List.iter
    (fun (w : W.t) ->
      let cfg, _, _ = W.load w ~input:(W.default_input w) in
      let edges = Cfg.edges cfg in
      Array.iteri
        (fun i e -> Alcotest.(check int) "edge index" i (Cfg.edge_index cfg e))
        edges;
      let n = Cfg.num_blocks cfg in
      let not_found e =
        match Cfg.edge_index cfg e with
        | _ -> false
        | exception Not_found -> true
      in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          let is_edge = List.mem dst (Cfg.successors cfg src) in
          if is_edge = not_found { Cfg.src; dst } then
            Alcotest.failf "%s: %d -> %d misclassified" w.W.name src dst
        done
      done;
      Alcotest.(check bool) "source out of range" true
        (not_found { Cfg.src = n; dst = 0 }
        && not_found { Cfg.src = -1; dst = 0 }))
    W.all

let test_obs_counters () =
  let w = W.find "ghostscript" in
  let cfg, _, memory = W.load w ~input:(W.default_input w) in
  let machine = W.eval_config () in
  let obs = Dvs_obs.create () in
  let p = Profile.collect ~obs machine cfg ~memory in
  let mx = Dvs_obs.metrics obs in
  let count name =
    Dvs_obs.Metrics.Counter.value
      (Dvs_obs.Metrics.counter mx ~stability:Dvs_obs.Metrics.Volatile name)
  in
  Alcotest.(check int) "one recording" 1 (count "profile.recordings");
  Alcotest.(check int) "one replay per mode" (Array.length p.Profile.runs)
    (count "profile.replays");
  let spans =
    List.filter
      (fun (e : Dvs_obs.Trace.entry) ->
        e.Dvs_obs.Trace.name = "profile.collect")
      (Dvs_obs.Trace.entries (Dvs_obs.trace obs))
  in
  Alcotest.(check bool) "profile.collect span" true (spans <> []);
  Alcotest.(check (list string)) "no stable trace entries" []
    (Dvs_obs.Trace.stable_set (Dvs_obs.trace obs));
  let stable =
    Dvs_obs.Json.to_string
      (Dvs_obs.Metrics.stable_subset (Dvs_obs.Metrics.snapshot mx))
  in
  let mentions_sim =
    try
      ignore (Str.search_forward (Str.regexp_string "\"sim.") stable 0);
      true
    with Not_found -> false
  in
  Alcotest.(check bool) "no stable sim.* metrics" false mentions_sim

(* A profile and a session built from one recording answer exactly as
   separately recorded ones do. *)
let test_shared_recording () =
  let w = W.find "adpcm" in
  let cfg, _, memory = W.load w ~input:(W.default_input w) in
  let machine = W.eval_config () in
  let s = Dvs_machine.Summary.create machine cfg ~memory in
  check_same "of_summary" (Profile.collect machine cfg ~memory)
    (Profile.of_summary s);
  let shared = Dvs_core.Verify.Session.of_summary s in
  let own = Dvs_core.Verify.Session.create machine cfg ~memory in
  let schedule =
    { Dvs_core.Schedule.entry_mode = 1;
      edge_mode =
        Array.mapi (fun i _ -> i mod 3) (Cfg.edges cfg) }
  in
  let check session =
    (Dvs_core.Verify.Session.check session ~schedule ~deadline:1.0
       ~predicted_energy:1.0)
      .Dvs_core.Verify.stats
  in
  Test_summary.check_stats "shared session" (check own) (check shared)

(* Through the store, a shared recording is forced only on a miss: a
   hit answers the profile without simulating at all. *)
let test_store_recording () =
  let w = W.find "adpcm" in
  let cfg, _, memory = W.load w ~input:(W.default_input w) in
  let machine = W.eval_config () in
  let root = Test_store.fresh_root () in
  let st = Dvs_store.Store.open_ ~root () in
  let profile () =
    let recording = lazy (Dvs_machine.Summary.create machine cfg ~memory) in
    let p =
      Dvs_store.Exec.profile ~store:st ~recording ~source:"adpcm:default"
        machine cfg ~memory
    in
    (p, Lazy.is_val recording)
  in
  let miss, recorded_on_miss = profile () in
  let _, recorded_on_hit = profile () in
  Test_store.rm_rf root;
  Alcotest.(check bool) "a miss profiles the recording" true recorded_on_miss;
  Alcotest.(check bool) "a hit leaves it alone" false recorded_on_hit;
  check_same "store miss" (Profile.collect machine cfg ~memory) miss

(* Pipeline.optimize profiles and verifies from one recording; the
   result is the one a separately collected profile and separately
   recorded session give. *)
let test_optimize_shares () =
  let w = W.find "gsm" in
  let cfg, _, memory = W.load w ~input:(W.default_input w) in
  let machine = W.eval_config () in
  let profile = Profile_oracle.collect machine cfg ~memory in
  let deadline = 0.5 *. (Profile.pinned_time profile ~mode:0
                         +. Profile.pinned_time profile ~mode:2) in
  let module P = Dvs_core.Pipeline in
  let shared = P.optimize machine cfg ~memory ~deadline in
  let separate =
    P.optimize_multi
      ~session:(Dvs_core.Verify.Session.create machine cfg ~memory)
      ~regulator:machine.Config.regulator ~memory
      [ { Dvs_core.Formulation.profile; weight = 1.0; deadline } ]
  in
  let energy (r : P.result) =
    Option.map
      (fun (v : Dvs_core.Verify.report) ->
        bits v.Dvs_core.Verify.stats.Cpu.energy)
      r.P.verification
  in
  Alcotest.(check bool) "verified" true (energy shared <> None);
  Alcotest.(check bool) "same verified energy" true
    (energy shared = energy separate);
  Alcotest.(check bool) "same schedule" true
    (match (shared.P.schedule, separate.P.schedule) with
    | Some a, Some b -> Dvs_core.Schedule.equal a b
    | _ -> false)

let suite =
  [ Alcotest.test_case "tape replay equals the cycle-accurate oracle" `Slow
      test_matches_oracle;
    Alcotest.test_case "fuel runs out exactly as before" `Quick test_fuel;
    Alcotest.test_case "packed position rejects overflow" `Quick
      test_pack_rejects;
    Alcotest.test_case "tape positions decode to the run" `Quick
      test_tape_positions;
    Alcotest.test_case "edge index by successor table" `Quick test_edge_index;
    Alcotest.test_case "collect reports its instruments" `Quick
      test_obs_counters;
    Alcotest.test_case "one recording serves profile and session" `Quick
      test_shared_recording;
    Alcotest.test_case "store hit skips the shared recording" `Quick
      test_store_recording;
    Alcotest.test_case "optimize shares one recording" `Quick
      test_optimize_shares ]
