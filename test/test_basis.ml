(* Backend-independent LP checks.

   The simplex carries its basis on one sparse LU factorization, so
   there is no second backend to compare against.  Instead every optimal
   solve is judged by an optimality certificate that depends only on the
   model and the returned basis: the kernel checks it on its final
   factorization (primal feasibility, reduced-cost signs, complementary
   slackness, strong duality) and counts failures in
   [Simplex.stats.certificate_failures] / the Stable [lp.certificate_failures]
   counter; these tests additionally re-check primal feasibility and the
   objective against the model itself.  Refactorization cadence changes
   the linear algebra's roundoff, never the answer: every policy must
   reach the same status and objective. *)

open Dvs_lp
module Solver = Dvs_milp.Solver
module Fault = Dvs_milp.Fault
module Rng = Dvs_workloads.Rng

(* ---- seeded LP instances ------------------------------------------- *)

(* Random sparse LP built around a known feasible point, sized so the
   basis actually cycles through refactorizations: 12..30 vars, 8..20
   rows, ~1/3 fill, a mix of Le and Ge rows (Ge forces phase-1 work). *)
let seeded_lp seed =
  let rng = Rng.create seed in
  let frac lo hi =
    lo +. ((hi -. lo) *. (float_of_int (Rng.int rng 99_991) /. 99991.0))
  in
  let n = 12 + Rng.int rng 19 and rows = 8 + Rng.int rng 13 in
  let m = Model.create () in
  let vars = Array.init n (fun _ -> Model.add_var ~ub:6.0 m) in
  let x0 = Array.init n (fun _ -> frac 0.0 3.0) in
  for _ = 1 to rows do
    let terms = ref [] in
    for j = 0 to n - 1 do
      if Rng.int rng 3 = 0 then
        terms := (frac (-4.0) 4.0, vars.(j)) :: !terms
    done;
    let terms =
      match !terms with [] -> [ (1.0, vars.(0)) ] | ts -> ts
    in
    let lhs0 =
      List.fold_left (fun acc (c, v) -> acc +. (c *. x0.(v))) 0.0 terms
    in
    (* Slack keeps x0 feasible for either sense. *)
    if Rng.int rng 4 = 0 then
      Model.add_constraint m (Expr.of_terms terms) Model.Ge
        (lhs0 -. frac 0.5 3.0)
    else
      Model.add_constraint m (Expr.of_terms terms) Model.Le
        (lhs0 +. frac 0.5 3.0)
  done;
  Model.set_objective m Model.Minimize
    (Expr.of_terms (List.init n (fun j -> (frac (-4.0) 4.0, vars.(j)))));
  m

let check_objective ~what (a : Simplex.solution) (b : Simplex.solution) =
  let oa = a.Simplex.objective and ob = b.Simplex.objective in
  if Float.abs (oa -. ob) > 1e-9 *. Float.max 1.0 (Float.abs ob) then
    Alcotest.failf "%s: objective %.15g vs %.15g" what oa ob

(* The test's own primal check, straight off the model: every
   constraint and bound holds and the objective is c.x. *)
let check_primal ~what m (s : Simplex.solution) =
  let x = s.Simplex.values in
  let tol v = 1e-7 *. (1.0 +. Float.abs v) in
  List.iter
    (fun (c : Model.constr) ->
      let lhs = Expr.eval (fun v -> x.(v)) c.Model.expr in
      let rhs = c.Model.rhs in
      let bad =
        match c.Model.cmp with
        | Model.Le -> lhs > rhs +. tol rhs
        | Model.Ge -> lhs < rhs -. tol rhs
        | Model.Eq -> Float.abs (lhs -. rhs) > tol rhs
      in
      if bad then
        Alcotest.failf "%s: row violated (%.12g vs %.12g)" what lhs rhs)
    (Model.constraints m);
  Array.iteri
    (fun v xv ->
      let lb, ub = Model.bounds m v in
      if xv < lb -. tol lb || xv > ub +. tol ub then
        Alcotest.failf "%s: var %d = %.12g outside [%g, %g]" what v xv lb ub)
    x;
  let _, obj = Model.objective m in
  let cx = Expr.eval (fun v -> x.(v)) obj in
  if Float.abs (cx -. s.Simplex.objective) > 1e-9 *. (1.0 +. Float.abs cx)
  then
    Alcotest.failf "%s: objective %.15g vs c.x %.15g" what
      s.Simplex.objective cx

let certified ~what (st, _, (stats : Simplex.stats)) =
  if stats.Simplex.certificate_failures <> 0 then
    Alcotest.failf "%s: %d certificate failure(s) (%a)" what
      stats.Simplex.certificate_failures Simplex.pp_status st

(* Every seed: the kernel's certificate holds, the solution passes the
   test's own primal check, and a refactorize-every-pivot solve (a
   different factorization sequence, hence different roundoff) reaches
   the same status and objective. *)
let test_lp_certificate () =
  for seed = 1 to 25 do
    let m = seeded_lp seed in
    let what = Printf.sprintf "seed %d" seed in
    let ((st, _, _) as r) = Simplex.solve_ext m in
    certified ~what r;
    let ((st1, _, _) as r1) =
      Simplex.solve_ext ~refactor:(Simplex.Pivots 1) m
    in
    certified ~what:(what ^ " pivots-1") r1;
    match (st, st1) with
    | Simplex.Optimal a, Simplex.Optimal b ->
      check_primal ~what m a;
      check_objective ~what a b
    | Simplex.Infeasible, Simplex.Infeasible
    | Simplex.Unbounded, Simplex.Unbounded ->
      ()
    | a, b ->
      Alcotest.failf "seed %d: status %a vs %a (pivots 1)" seed
        Simplex.pp_status a Simplex.pp_status b
  done

(* Refactorization cadence changes linear-algebra bookkeeping (and its
   roundoff), never the answer: every policy must reach the same status
   and objective as the default cadence. *)
let test_refactor_policy_equivalent () =
  let policies =
    [ Simplex.Pivots 1;
      Simplex.Pivots 7;
      Simplex.Eta_fill { max_pivots = 1; growth = 2.0 };
      Simplex.Eta_fill { max_pivots = 256; growth = 0.01 } ]
  in
  for seed = 1 to 5 do
    let m = seeded_lp seed in
    let ref_st, _, _ = Simplex.solve_ext m in
    List.iter
      (fun refactor ->
        let ((st, _, _) as r) = Simplex.solve_ext ~refactor m in
        let what = Printf.sprintf "seed %d (policy)" seed in
        certified ~what r;
        match (ref_st, st) with
        | Simplex.Optimal a, Simplex.Optimal b -> check_objective ~what a b
        | Simplex.Infeasible, Simplex.Infeasible
        | Simplex.Unbounded, Simplex.Unbounded ->
          ()
        | _ -> Alcotest.failf "seed %d: status drift under the policy" seed)
      policies
  done

(* The LU kernel does sparse work: on a sparse model with plenty of
   rows (150 rows, 4 entries each, over 240 columns) its charged flops
   stay below what an explicit dense inverse charges for its per-pivot
   row updates alone (2 m^2 per pivot), before any of its m^3 rebuilds. *)
let test_lu_saves_flops () =
  let rng = Rng.create 3 in
  let n = 240 and rows = 150 in
  let m = Model.create () in
  let vars = Array.init n (fun _ -> Model.add_var ~ub:5.0 m) in
  for _ = 1 to rows do
    let terms =
      List.init 4 (fun _ ->
          (1.0 +. float_of_int (Rng.int rng 97) /. 31.0, vars.(Rng.int rng n)))
    in
    Model.add_constraint m (Expr.of_terms terms) Model.Le
      (2.0 +. float_of_int (Rng.int rng 89) /. 11.0)
  done;
  Model.set_objective m Model.Maximize
    (Expr.of_terms
       (List.init n (fun j ->
            (1.0 +. (float_of_int (Rng.int rng 53) /. 7.0), vars.(j)))));
  let ((_, _, s) as r) = Simplex.solve_ext m in
  certified ~what:"sparse" r;
  if s.Simplex.refactorizations < 1 || s.Simplex.pivots < 20 then
    Alcotest.failf "too little work to compare (%d pivots)" s.Simplex.pivots;
  let dense = s.Simplex.pivots * 2 * rows * rows in
  if s.Simplex.flops >= dense then
    Alcotest.failf "LU flops %d not below dense per-pivot cost %d"
      s.Simplex.flops dense

(* ---- singular / near-singular warm hints --------------------------- *)

(* Basis from a well-conditioned model applied to a same-shape model
   whose corresponding basis matrix is singular (duplicate columns):
   the kernel must detect the singularity, fall back to a cold solve,
   and still return the optimum. *)
let singular_pair scale =
  let build c10 c11 obj_y =
    let m = Model.create () in
    let x = Model.add_var m and y = Model.add_var m in
    Model.add_constraint m
      (Expr.of_terms [ (1.0, x); (c10, y) ])
      Model.Le 4.0;
    Model.add_constraint m
      (Expr.of_terms [ (3.0, x); (c11, y) ])
      Model.Le 5.0;
    Model.set_objective m Model.Maximize
      (Expr.of_terms [ (1.0, x); (obj_y, y) ]);
    m
  in
  (* A's optimum sits at the intersection: both x and y basic. *)
  let a = build 2.0 1.0 1.0 in
  (* B duplicates column x (up to [scale] of an exact copy), so A's
     {x, y}-basic basis is singular or numerically so on B. *)
  let b = build 1.0 scale 0.5 in
  (a, b)

let test_singular_hint_falls_back scale () =
  let a, b = singular_pair scale in
  let basis =
    match Simplex.solve_ext a with
    | Simplex.Optimal _, Some basis, _ -> basis
    | _ -> Alcotest.fail "model A must solve with both vars basic"
  in
  let cold =
    match Simplex.solve b with
    | Simplex.Optimal s -> s
    | st -> Alcotest.failf "cold solve of B: %a" Simplex.pp_status st
  in
  match Simplex.solve_ext ~basis b with
  | (Simplex.Optimal warm, _, _) as r ->
    certified ~what:"fallback" r;
    if Float.abs (warm.Simplex.objective -. cold.Simplex.objective) > 1e-9
    then
      Alcotest.failf "fallback objective %.12g vs cold %.12g"
        warm.Simplex.objective cold.Simplex.objective
  | st, _, _ ->
    Alcotest.failf "singular hint must fall back to optimal, got %a"
      Simplex.pp_status st

(* ---- MILP-level agreement ------------------------------------------ *)

(* Same DVS-shaped seeded instances as the presolve property: SOS1 mode
   groups, a shared budget row, distinct fractional costs (unique
   optimum, so schedules are comparable bit for bit). *)
let seeded_dvs_milp seed =
  let rng = Rng.create seed in
  let groups = 3 + Rng.int rng 4 and modes = 2 + Rng.int rng 2 in
  let m = Model.create () in
  let k =
    Array.init groups (fun _ -> Array.init modes (fun _ -> Model.binary m))
  in
  let cost =
    Array.init groups (fun _ ->
        Array.init modes (fun _ ->
            1.0 +. (float_of_int (Rng.int rng 100_000) /. 97.0)))
  in
  let time =
    Array.init groups (fun g ->
        Array.init modes (fun j ->
            float_of_int (modes - j)
            +. (float_of_int (Rng.int rng 100) /. 400.0)
            +. (0.25 *. float_of_int (g mod 3))))
  in
  for g = 0 to groups - 1 do
    Model.add_constraint m
      (Expr.of_terms (List.init modes (fun j -> (1.0, k.(g).(j)))))
      Model.Eq 1.0
  done;
  let sum_by pick =
    Array.to_list time
    |> List.fold_left (fun acc row -> acc +. pick row) 0.0
  in
  let tmin = sum_by (Array.fold_left Float.min infinity)
  and tmax = sum_by (Array.fold_left Float.max neg_infinity) in
  let budget =
    tmin
    +. ((tmax -. tmin)
        *. (0.15 +. (float_of_int (Rng.int rng 60) /. 100.0)))
  in
  let all w =
    Expr.of_terms
      (List.concat_map
         (fun g -> List.init modes (fun j -> (w.(g).(j), k.(g).(j))))
         (List.init groups Fun.id))
  in
  Model.add_constraint m (all time) Model.Le budget;
  Model.set_objective m Model.Minimize (all cost);
  (m, List.map Array.to_list (Array.to_list k))

(* Each solve gets a private metrics registry (to read its
   lp.certificate_failures) and Config.make's private Lp_cache (so no
   cached relaxation answers a solve it was not computed for). *)
let milp_solve ?fault ?refactor ~jobs (m, sos1) =
  let obs = Dvs_obs.metrics_only () in
  let config =
    Solver.Config.make ~jobs ?refactor ~obs ()
    |> Solver.Config.with_sos1 sos1
    |> Option.fold ~none:Fun.id ~some:Solver.Config.with_fault fault
  in
  let r = Solver.solve ~config m in
  let failures =
    Dvs_obs.Metrics.Counter.value
      (Dvs_obs.Metrics.counter (Dvs_obs.metrics obs)
         ~stability:Dvs_obs.Metrics.Stable "lp.certificate_failures")
  in
  (r, failures)

let check_milp_agree ~what instance (r_a : Solver.result)
    (r_b : Solver.result) =
  if r_a.Solver.outcome <> r_b.Solver.outcome then
    Alcotest.failf "%s: outcome %a vs %a" what Solver.pp_outcome
      r_a.Solver.outcome Solver.pp_outcome r_b.Solver.outcome;
  match (r_a.Solver.solution, r_b.Solver.solution) with
  | None, None -> ()
  | Some a, Some b ->
    let oa = a.Simplex.objective and ob = b.Simplex.objective in
    if Float.abs (oa -. ob) > 1e-9 *. Float.max 1.0 (Float.abs ob) then
      Alcotest.failf "%s: objective %.15g vs %.15g" what oa ob;
    let _, sos1 = instance in
    List.iteri
      (fun g group ->
        List.iteri
          (fun j v ->
            let xa = Float.round a.Simplex.values.(v)
            and xb = Float.round b.Simplex.values.(v) in
            if Int64.bits_of_float xa <> Int64.bits_of_float xb then
              Alcotest.failf "%s: group %d mode %d differs (%g vs %g)"
                what g j xa xb)
          group)
      sos1
  | _ -> Alcotest.failf "%s: solution presence differs" what

let certified_milp ~what (r, failures) =
  if failures <> 0 then
    Alcotest.failf "%s: %d LP certificate failure(s)" what failures;
  r

(* Zero certificate failures over every relaxation of the 25-seed MILP
   suite at jobs 1 and 4; the same answer at both worker counts and
   under a refactorize-every-pivot policy (objective, status and the
   rounded schedule). *)
let test_milp_certificate () =
  for seed = 1 to 25 do
    let instance = seeded_dvs_milp seed in
    let base = ref None in
    List.iter
      (fun jobs ->
        let what = Printf.sprintf "seed %d jobs %d" seed jobs in
        let r = certified_milp ~what (milp_solve ~jobs instance) in
        let r1 =
          certified_milp ~what:(what ^ " pivots-1")
            (milp_solve ~refactor:(Simplex.Pivots 1) ~jobs instance)
        in
        check_milp_agree ~what:(what ^ " policy") instance r r1;
        match !base with
        | None -> base := Some r
        | Some r0 -> check_milp_agree ~what:(what ^ " vs jobs 1") instance r0 r)
      [ 1; 4 ]
  done

(* Injected faults fire on node/LP ordinals, not on anything the
   refactorization cadence touches — so every policy must degrade
   identically: same typed outcome, same incumbent. *)
let test_fault_agreement () =
  let specs =
    [ ("crash", fun () -> Fault.make ~crash_at_nodes:[ 1 ] ());
      ("exhaust", fun () -> Fault.make ~exhaust_pivots_every:2 ()) ]
  in
  for seed = 1 to 5 do
    let instance = seeded_dvs_milp seed in
    List.iter
      (fun (name, fresh) ->
        let what = Printf.sprintf "seed %d fault %s" seed name in
        let r =
          certified_milp ~what (milp_solve ~fault:(fresh ()) ~jobs:1 instance)
        in
        let r1 =
          certified_milp ~what
            (milp_solve ~fault:(fresh ()) ~refactor:(Simplex.Pivots 1)
               ~jobs:1 instance)
        in
        check_milp_agree ~what instance r r1)
      specs
  done

(* ---- the factorization itself ------------------------------------ *)

(* Row-major [a] (n x n), every entry stored, as the CSC arrays
   Lu.refactor reads, explicit zeros included (the factorization must
   drop them). *)
let csc n a =
  let ptr = Array.init (n + 1) (fun j -> j * n) in
  let row = Array.init (n * n) (fun p -> p mod n) in
  let vals = Array.init (n * n) (fun p -> a.(((p mod n) * n) + (p / n))) in
  (ptr, row, vals)

let test_lu_solve_3x3 () =
  let a = [| 2.0; 1.0; -1.0; -3.0; -1.0; 2.0; -2.0; 1.0; 2.0 |] in
  let ptr, row, vals = csc 3 a in
  let lu = Lu.create () in
  if not (Lu.refactor lu ~m:3 ~ptr ~row ~vals ()) then
    Alcotest.fail "unexpectedly singular"
  else
    let x = [| 8.0; -11.0; -3.0 |] in
    ignore (Lu.ftran lu ~x ~tmp:(Array.make 3 0.0));
    Array.iteri
      (fun i e ->
        if Float.abs (x.(i) -. e) > 1e-12 then
          Alcotest.failf "x%d = %.15g, expected %g" i x.(i) e)
      [| 2.0; 3.0; -1.0 |]

let test_lu_singular () =
  let ptr, row, vals = csc 2 [| 1.0; 2.0; 2.0; 4.0 |] in
  Alcotest.(check bool) "singular" false
    (Lu.refactor (Lu.create ()) ~m:2 ~ptr ~row ~vals ())

(* One factorization object refactored in place across random sparse
   diagonally dominant matrices of varying size: FTRAN inverts A x and
   BTRAN inverts A^T z every time, whatever the buffers held before. *)
let qcheck_lu_roundtrip =
  let shared = Lu.create () in
  QCheck.Test.make ~name:"LU refactor round-trips a*x" ~count:200
    QCheck.(pair (int_range 1 9) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let r () = float_of_int (Rng.int rng 2001 - 1000) /. 200.0 in
      let a =
        Array.init (n * n) (fun k ->
            if k / n = k mod n then 20.0 +. r ()
            else if Rng.int rng 3 = 0 then r ()
            else 0.0)
      in
      let x = Array.init n (fun _ -> r ()) in
      let mul tr v =
        Array.init n (fun i ->
            let s = ref 0.0 in
            for j = 0 to n - 1 do
              let aij = if tr then a.((j * n) + i) else a.((i * n) + j) in
              s := !s +. (aij *. v.(j))
            done;
            !s)
      in
      let ptr, row, vals = csc n a in
      Lu.refactor shared ~m:n ~ptr ~row ~vals ()
      &&
      let tmp = Array.make n 0.0 in
      let close u v =
        Array.for_all2 (fun p q -> Float.abs (p -. q) < 1e-9) u v
      in
      let b = mul false x in
      ignore (Lu.ftran shared ~x:b ~tmp);
      let c = mul true x in
      ignore (Lu.btran shared ~x:c ~tmp);
      close b x && close c x)

(* ---- config plumbing ----------------------------------------------- *)

let test_refactor_validation () =
  Alcotest.check_raises "Pivots must be >= 1"
    (Invalid_argument
       "Solver.Config.make: refactor pivot trigger must be >= 1")
    (fun () ->
      ignore (Solver.Config.make ~refactor:(Simplex.Pivots 0) ()));
  Alcotest.check_raises "Eta_fill growth must be positive"
    (Invalid_argument
       "Solver.Config.make: refactor eta trigger must be positive")
    (fun () ->
      ignore
        (Solver.Config.make
           ~refactor:(Simplex.Eta_fill { max_pivots = 8; growth = 0.0 })
           ()))

let suite =
  [ Alcotest.test_case "LP certificate holds on every seed" `Quick
      test_lp_certificate;
    Alcotest.test_case "refactor policy never changes the answer" `Quick
      test_refactor_policy_equivalent;
    Alcotest.test_case "LU charges fewer flops than dense" `Quick
      test_lu_saves_flops;
    Alcotest.test_case "singular warm hint falls back" `Quick
      (test_singular_hint_falls_back 1.0);
    Alcotest.test_case "near-singular warm hint falls back" `Quick
      (test_singular_hint_falls_back (1.0 +. 1e-13));
    Alcotest.test_case "MILP certificate holds across jobs" `Quick
      test_milp_certificate;
    Alcotest.test_case "faults agree across refactor policies" `Quick
      test_fault_agreement;
    Alcotest.test_case "LU solves a 3x3 system" `Quick test_lu_solve_3x3;
    Alcotest.test_case "LU detects a singular matrix" `Quick test_lu_singular;
    QCheck_alcotest.to_alcotest qcheck_lu_roundtrip;
    Alcotest.test_case "refactor config validation" `Quick
      test_refactor_validation ]
