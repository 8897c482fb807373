(* Fault-injection suite for the resilient solve pipeline: worker crash
   containment in Solver, the Pipeline degradation ladder, and the
   LRU-bounded Lp_cache.

   The CI fault-injection leg runs this suite at jobs=1 and jobs=4 via
   DVS_FAULT_JOBS; without the variable both are exercised. *)

module Solver = Dvs_milp.Solver
module Fault = Dvs_milp.Fault
module Lp_cache = Dvs_milp.Lp_cache
module Model = Dvs_lp.Model
module Expr = Dvs_lp.Expr
module Simplex = Dvs_lp.Simplex
open Dvs_core

let jobs_list =
  match Sys.getenv_opt "DVS_FAULT_JOBS" with
  | Some s -> [ int_of_string (String.trim s) ]
  | None -> [ 1; 4 ]

let check_float ?(eps = 1e-6) what expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" what expected actual

let objective (r : Solver.result) =
  match r.Solver.solution with
  | Some s -> s.Simplex.objective
  | None -> Alcotest.fail "expected a solution"

(* 0/1 knapsack: values 60,100,120; weights 10,20,30; cap 50 -> 220 at
   x = (0,1,1). *)
let knapsack () =
  let m = Model.create () in
  let xs = Array.init 3 (fun _ -> Model.binary m) in
  Model.add_constraint m
    (Expr.of_terms [ (10.0, xs.(0)); (20.0, xs.(1)); (30.0, xs.(2)) ])
    Model.Le 50.0;
  Model.set_objective m Model.Maximize
    (Expr.of_terms [ (60.0, xs.(0)); (100.0, xs.(1)); (120.0, xs.(2)) ]);
  (m, xs)

(* SOS1 groups under a shared budget — the DVS formulation's shape, deep
   enough that branch and bound does real work. *)
let sos1_model ~groups ~modes ~budget =
  let m = Model.create () in
  let k =
    Array.init groups (fun _ -> Array.init modes (fun _ -> Model.binary m))
  in
  let cost g j = float_of_int (((g * 7) + (j * 3)) mod 11) +. 1.0 in
  let time g j =
    float_of_int (modes - j) +. (0.25 *. float_of_int (g mod 3))
  in
  for g = 0 to groups - 1 do
    Model.add_constraint m
      (Expr.of_terms (List.init modes (fun j -> (1.0, k.(g).(j)))))
      Model.Eq 1.0
  done;
  let all w =
    Expr.of_terms
      (List.concat_map
         (fun g -> List.init modes (fun j -> (w g j, k.(g).(j))))
         (List.init groups Fun.id))
  in
  Model.add_constraint m (all time) Model.Le budget;
  Model.set_objective m Model.Minimize (all cost);
  (m, k)

let all_fastest k ~modes =
  Array.to_list k
  |> List.concat_map (fun group ->
         List.init modes (fun j ->
             (group.(j), if j = modes - 1 then 1.0 else 0.0)))

(* --- Solver-level fault tolerance ------------------------------------- *)

(* An expired time limit with a warm start must still return the seeded
   feasible solution, at any job count, with identical objectives. *)
let test_time_limit_warm_start () =
  let objs =
    List.map
      (fun jobs ->
        let m, k = sos1_model ~groups:8 ~modes:3 ~budget:26.0 in
        let config =
          Solver.Config.make ~jobs ~time_limit:0.0 ()
          |> Solver.Config.with_warm_start (all_fastest k ~modes:3)
        in
        let r = Solver.solve ~config m in
        (match r.Solver.outcome with
        | Solver.Feasible Solver.Time_limit -> ()
        | o ->
          Alcotest.failf "jobs=%d: expected feasible@time-limit, got %a"
            jobs Solver.pp_outcome o);
        objective r)
      jobs_list
  in
  match objs with
  | o :: rest ->
    List.iter (fun o' -> check_float ~eps:0.0 "objective across jobs" o o')
      rest
  | [] -> ()

(* When the incumbent is already optimal, crashing every node must not
   change the answer: containment keeps the warm-started incumbent and
   the objective matches the crash-free run exactly. *)
let test_crash_identical_when_optimal () =
  List.iter
    (fun jobs ->
      let solve fault =
        let m, xs = knapsack () in
        let config =
          Solver.Config.make ~jobs ()
          |> Option.fold ~none:Fun.id ~some:Solver.Config.with_fault fault
          |> Solver.Config.with_warm_start
               [ (xs.(0), 0.0); (xs.(1), 1.0); (xs.(2), 1.0) ]
        in
        Solver.solve ~config m
      in
      let clean = solve None in
      (match clean.Solver.outcome with
      | Solver.Optimal -> ()
      | o ->
        Alcotest.failf "jobs=%d: clean run should be optimal, got %a" jobs
          Solver.pp_outcome o);
      let fault = Fault.make ~crash_every:1 () in
      let faulted = solve (Some fault) in
      (match faulted.Solver.outcome with
      | Solver.Degraded d when d.Solver.crashes <> [] -> ()
      | o ->
        Alcotest.failf "jobs=%d: expected degraded-with-crashes, got %a"
          jobs Solver.pp_outcome o);
      check_float ~eps:0.0 "objective unchanged by crashes"
        (objective clean) (objective faulted);
      let inj = Fault.injected fault in
      Alcotest.(check bool)
        "injector counted crashes" true (inj.Fault.crashes >= 1))
    jobs_list

(* Crashing the root node loses the whole tree, but containment keeps
   the warm-started incumbent and the reported bound stays valid (covers
   the lost subtree). *)
let test_crash_containment_mid_search () =
  List.iter
    (fun jobs ->
      let m, k = sos1_model ~groups:6 ~modes:3 ~budget:20.0 in
      let fault = Fault.make ~crash_at_nodes:[ 1 ] () in
      let config =
        Solver.Config.make ~jobs ()
        |> Solver.Config.with_fault fault
        |> Solver.Config.with_warm_start (all_fastest k ~modes:3)
      in
      let r = Solver.solve ~config m in
      match r.Solver.outcome with
      | Solver.Degraded d ->
        Alcotest.(check int)
          "one crash contained" 1 (List.length d.Solver.crashes);
        let obj = objective r in
        Alcotest.(check bool)
          "bound still covers the lost subtree (minimize)" true
          (r.Solver.bound <= obj +. 1e-9)
      | o ->
        Alcotest.failf "jobs=%d: expected degraded, got %a" jobs
          Solver.pp_outcome o)
    jobs_list

(* --- Pipeline degradation ladder --------------------------------------- *)

(* Memory-bound streaming phase + compute-bound phase, small enough to
   profile quickly (same shape as test_dvs). *)
let test_src =
  "int a[512]; int s; int i; int j;\n\
   s = 0;\n\
   for (i = 0; i < 512; i = i + 1) { s = s + a[i]; }\n\
   for (i = 0; i < 50; i = i + 1) {\n\
   \  for (j = 0; j < 10; j = j + 1) { s = s + i * j; }\n\
   }"

let tiny_config =
  Dvs_machine.Config.default
    ~l1d:{ Dvs_machine.Config.size_bytes = 128; assoc = 2; block_bytes = 16;
           latency_cycles = 1 }
    ~l2:{ Dvs_machine.Config.size_bytes = 512; assoc = 2; block_bytes = 16;
          latency_cycles = 4 }
    ~dram_latency:1e-6 ()

let compiled = lazy (Dvs_lang.Lower.compile_string test_src)

let memory () =
  let _, layout = Lazy.force compiled in
  Array.init layout.Dvs_lang.Lower.memory_words (fun i -> i mod 17)

let profile_cached =
  lazy
    (let cfg, _ = Lazy.force compiled in
     Dvs_profile.Profile.collect tiny_config cfg ~memory:(memory ()))

let mid_deadline () =
  let p = Lazy.force profile_cached in
  let n =
    Dvs_power.Mode.size tiny_config.Dvs_machine.Config.mode_table
  in
  let t_fast = Dvs_profile.Profile.pinned_time p ~mode:(n - 1) in
  let t_slow = Dvs_profile.Profile.pinned_time p ~mode:0 in
  t_fast +. (0.5 *. (t_slow -. t_fast))

let run_pipeline ?(continuous_bound = true) solver deadline =
  let p = Lazy.force profile_cached in
  let config = Pipeline.Config.make ~solver ~continuous_bound () in
  Pipeline.optimize_multi ~config
    ~regulator:tiny_config.Dvs_machine.Config.regulator ~memory:(memory ())
    [ { Formulation.profile = p; weight = 1.0; deadline } ]

(* One warm session for every baseline measurement in the suite: the
   recording run happens once, each deadline's baseline is a tape
   replay (Verify.run would re-simulate from scratch per call). *)
let verify_session =
  lazy
    (let cfg, _ = Lazy.force compiled in
     Verify.Session.create tiny_config cfg ~memory:(memory ()))

let baseline_measured deadline =
  let p = Lazy.force profile_cached in
  match Baselines.best_single_mode p ~deadline with
  | None -> None
  | Some (mode, e_model) ->
    let cfg = p.Dvs_profile.Profile.cfg in
    let schedule = Schedule.uniform cfg mode in
    let v =
      Verify.Session.check (Lazy.force verify_session) ~schedule ~deadline
        ~predicted_energy:e_model
    in
    Some v.Verify.stats.Dvs_machine.Cpu.energy

(* Exhausting every simplex pivot budget makes branch and bound useless;
   with the continuous-bound engine ablated, the ladder must fall past
   the MILP rungs and still hand back a verified schedule.  (With the
   engine on, the rounded continuous seed survives pivot exhaustion as a
   ready-made incumbent, so the pipeline need not descend at all — the
   second half checks that stronger outcome.) *)
let test_ladder_pivot_exhaustion () =
  List.iter
    (fun jobs ->
      let solver =
        Solver.Config.make ~jobs ~max_nodes:500 ()
        |> Solver.Config.with_fault (Fault.make ~exhaust_pivots_every:1 ())
      in
      let r =
        run_pipeline ~continuous_bound:false solver (mid_deadline ())
      in
      (match r.Pipeline.rung with
      | Some (Pipeline.Rounded_lp | Pipeline.Single_mode) -> ()
      | Some rung ->
        Alcotest.failf "jobs=%d: expected a fallback rung, got %a" jobs
          Pipeline.pp_rung rung
      | None -> Alcotest.failf "jobs=%d: ladder produced no schedule" jobs);
      Alcotest.(check bool)
        "descents recorded" true (r.Pipeline.descents <> []);
      (match r.Pipeline.verification with
      | Some v ->
        Alcotest.(check bool)
          "fallback schedule meets the deadline" true v.Verify.meets_deadline
      | None -> Alcotest.fail "fallback rung was not verified");
      (* Same fault with the engine on: the seeded incumbent must keep a
         verified schedule alive, whatever rung answers. *)
      let seeded = run_pipeline solver (mid_deadline ()) in
      match seeded.Pipeline.verification with
      | Some v ->
        Alcotest.(check bool)
          "seeded schedule meets the deadline" true v.Verify.meets_deadline
      | None -> Alcotest.failf "jobs=%d: seeded run was not verified" jobs)
    jobs_list

(* Acceptance scenario of the issue: a worker crash forced mid-search
   plus a near-zero time limit, and the pipeline must still return a
   schedule that passes verification, costs no more than the
   single-best-frequency baseline, and names its rung. *)
let test_crash_plus_time_limit_recovers () =
  List.iter
    (fun jobs ->
      let solver =
        Solver.Config.make ~jobs ~max_nodes:4000 ~time_limit:0.01 ()
        |> Solver.Config.with_fault (Fault.make ~crash_at_nodes:[ 1 ] ())
      in
      let deadline = mid_deadline () in
      let r = run_pipeline solver deadline in
      let v =
        match r.Pipeline.verification with
        | Some v -> v
        | None -> Alcotest.failf "jobs=%d: no verification report" jobs
      in
      Alcotest.(check bool)
        "schedule exists" true (r.Pipeline.schedule <> None);
      Alcotest.(check bool) "meets deadline" true v.Verify.meets_deadline;
      (match r.Pipeline.rung with
      | Some _ -> ()
      | None -> Alcotest.failf "jobs=%d: result does not name a rung" jobs);
      match baseline_measured deadline with
      | None -> ()
      | Some base ->
        Alcotest.(check bool)
          "energy <= single-best-frequency baseline" true
          (v.Verify.stats.Dvs_machine.Cpu.energy <= base *. 1.0000001))
    jobs_list

(* Forced cache misses must not change the answer, only the hit rate. *)
let test_forced_cache_misses_harmless () =
  let solve fault =
    let m, _ = sos1_model ~groups:6 ~modes:3 ~budget:20.0 in
    let config =
      Solver.Config.make ~jobs:1 ~cache:(Lp_cache.create ()) ()
      |> Option.fold ~none:Fun.id ~some:Solver.Config.with_fault fault
    in
    Solver.solve ~config m
  in
  let clean = solve None in
  let fault = Fault.make ~cache_miss_rate:1.0 () in
  let faulted = solve (Some fault) in
  check_float ~eps:0.0 "objective unchanged by forced misses"
    (objective clean) (objective faulted);
  Alcotest.(check int)
    "no cache hits under 100% forced misses" 0
    faulted.Solver.stats.Solver.cache_hits

(* --- Lp_cache LRU bounding --------------------------------------------- *)

let test_lp_cache_lru () =
  let t = Lp_cache.create ~max_entries:2 () in
  let get fp =
    ignore
      (Lp_cache.find_or_add t ~fingerprint:fp ~fixings:[] (fun () ->
           (Simplex.Infeasible, None)))
  in
  get 1;
  get 2;
  (* touch 1: now 2 is least recently used *)
  get 1;
  get 3;
  Alcotest.(check int) "one eviction" 1 (Lp_cache.evictions t);
  Alcotest.(check int) "bounded size" 2 (Lp_cache.length t);
  (* 1 survived (recently used), 2 was the victim *)
  get 1;
  get 2;
  Alcotest.(check int) "hits: 1 stayed hot" 2 (Lp_cache.hits t);
  Alcotest.(check int) "misses: 2 was evicted" 4 (Lp_cache.misses t);
  Alcotest.(check int) "second eviction on re-insert" 2
    (Lp_cache.evictions t);
  Alcotest.check_raises "max_entries must be >= 1"
    (Invalid_argument "Lp_cache.create: max_entries must be >= 1")
    (fun () -> ignore (Lp_cache.create ~max_entries:0 ()))

(* Fault spec validation. *)
let test_fault_spec_validation () =
  Alcotest.check_raises "rate > 1"
    (Invalid_argument "Fault.make: cache_miss_rate must be in [0, 1]")
    (fun () -> ignore (Fault.make ~cache_miss_rate:1.5 ()));
  Alcotest.check_raises "0 ordinal"
    (Invalid_argument "Fault.make: ordinals are 1-based") (fun () ->
      ignore (Fault.make ~crash_at_nodes:[ 0 ] ()));
  Alcotest.check_raises "0 period"
    (Invalid_argument "Fault.make: every-N periods must be >= 1")
    (fun () -> ignore (Fault.make ~exhaust_pivots_every:0 ()))

let suite =
  [ Alcotest.test_case "time limit + warm start stays feasible" `Quick
      test_time_limit_warm_start;
    Alcotest.test_case "crashes leave optimal incumbent intact" `Quick
      test_crash_identical_when_optimal;
    Alcotest.test_case "mid-search crash contained" `Quick
      test_crash_containment_mid_search;
    Alcotest.test_case "ladder recovers from pivot exhaustion" `Quick
      test_ladder_pivot_exhaustion;
    Alcotest.test_case "crash + time limit recovers (acceptance)" `Quick
      test_crash_plus_time_limit_recovers;
    Alcotest.test_case "forced cache misses harmless" `Quick
      test_forced_cache_misses_harmless;
    Alcotest.test_case "lp cache LRU bounding" `Quick test_lp_cache_lru;
    Alcotest.test_case "fault spec validation" `Quick
      test_fault_spec_validation ]
