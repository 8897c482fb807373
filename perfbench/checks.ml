(* Output checks, run after each op outside its timed region.  None of
   them reads a number the timed call computed about itself: the
   continuous bound is rebuilt from a fresh formulation, the baseline
   comes from the profile's pinned runs, the objective is compared with
   a committed file, and sampled schedules are re-run on the
   cycle-accurate simulator. *)

module Pipeline = Dvs_core.Pipeline
module Verify = Dvs_core.Verify
module Formulation = Dvs_core.Formulation
module Relaxation = Dvs_core.Relaxation
module Schedule = Dvs_core.Schedule
module Profile = Dvs_profile.Profile
module Cpu = Dvs_machine.Cpu

(* What one deadline point of one op produced, as the ledger of checks
   sees it. *)
type verdict = {
  key : string;
  objective : float option;  (** MILP objective, model units (uJ) *)
  savings_pct : float option;  (** against the best single mode *)
  energy_error_pct : float option;  (** predicted vs simulated energy *)
  problems : string list;  (** empty when every check holds *)
}

type answers = Check of Answers.t | Write

(* Slack for the bound sandwich, relative: the objective, the bound and
   the baseline are sums of the same profile terms in different orders. *)
let sandwich_tol = 1e-6

(* Best single mode meeting every category deadline, weighted like the
   MILP objective, in uJ.  One category is exactly
   [Baselines.best_single_mode]. *)
let single_mode_uj (cats : Formulation.category list) =
  match cats with
  | [ c ] ->
    Option.map
      (fun (_, e) -> e *. 1e6)
      (Dvs_core.Baselines.best_single_mode c.Formulation.profile
         ~deadline:c.Formulation.deadline)
  | c0 :: _ ->
    let n = Array.length c0.Formulation.profile.Profile.runs in
    let best = ref None in
    for m = 0 to n - 1 do
      let fits =
        List.for_all
          (fun (c : Formulation.category) ->
            Profile.pinned_time c.Formulation.profile ~mode:m
            <= c.Formulation.deadline *. 1.000001)
          cats
      in
      if fits then begin
        let e =
          List.fold_left
            (fun acc (c : Formulation.category) ->
              acc
              +. c.Formulation.weight
                 *. Profile.pinned_energy c.Formulation.profile ~mode:m)
            0.0 cats
        in
        match !best with
        | Some e' when e' <= e -> ()
        | _ -> best := Some e
      end
    done;
    Option.map (fun e -> e *. 1e6) !best
  | [] -> None

(* The Li-Yao-Yuan continuous bound of the formulation the pipeline
   would build for [cats], rebuilt here from scratch (uJ). *)
let continuous_bound_uj ~config ~regulator (cats : Formulation.category list) =
  let prep = Pipeline.prepare ~config ~regulator cats in
  let rx = Relaxation.prepare prep.Pipeline.prep_formulation ~regulator cats in
  Relaxation.bound rx
    ~deadlines_us:
      (Array.of_list
         (List.map (fun (c : Formulation.category) -> c.Formulation.deadline *. 1e6) cats))

(* Everything a point is checked against, computed once per point key
   and reused on every pass. *)
type expect = {
  workload : string;
  point : string;
  lower_uj : float option;
  single_uj : float option;
}

let expect ~workload ~point ~config ~regulator cats =
  { workload; point;
    lower_uj = continuous_bound_uj ~config ~regulator cats;
    single_uj = single_mode_uj cats }

(* Objective-level checks shared by the pipeline results and the
   service replies. *)
let objective_checks ~answers (e : expect) obj =
  let p = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> p := s :: !p) fmt in
  (match e.lower_uj with
  | Some lb when lb > obj *. (1.0 +. sandwich_tol) ->
    bad "%s: objective %.9g below the continuous bound %.9g" e.point obj lb
  | Some _ -> ()
  | None -> bad "%s: continuous relaxation infeasible" e.point);
  (match e.single_uj with
  | Some s when obj > s *. (1.0 +. sandwich_tol) ->
    bad "%s: objective %.9g above the best single mode %.9g" e.point obj s
  | Some _ -> ()
  | None -> bad "%s: no single mode meets the deadline" e.point);
  (match answers with
  | Check a -> (
    match Answers.check a ~workload:e.workload ~key:e.point obj with
    | Ok () -> ()
    | Error why -> bad "%s" why)
  | Write -> Answers.record ~workload:e.workload ~key:e.point obj);
  let savings =
    match e.single_uj with
    | Some s when s > 0.0 -> Some (100.0 *. (1.0 -. (obj /. s)))
    | _ -> None
  in
  (List.rev !p, savings)

(* Re-run a schedule on the cycle-accurate simulator: it must meet the
   deadline within the repo's single verification tolerance. *)
let resimulate machine cfg ~memory ~deadline (s : Schedule.t) =
  let rc =
    Cpu.Run_config.make ~initial_mode:s.Schedule.entry_mode
      ~edge_modes:(Schedule.edge_modes s cfg) ()
  in
  let r = Cpu.run ~rc machine cfg ~memory in
  if r.Cpu.time <= deadline *. (1.0 +. Verify.deadline_tolerance) then []
  else
    [ Printf.sprintf "cycle-accurate run takes %.9g s, deadline %.9g s"
        r.Cpu.time deadline ]

(* Checks on one pipeline result.  [resim] re-simulates its schedule
   (a seeded sample of points gets it). *)
let result ~answers ?resim (e : expect) (r : Pipeline.result) =
  let cls = Pipeline.classify r in
  let class_problem =
    if cls = Pipeline.Full then []
    else [ Format.asprintf "%s: class %a" e.point Pipeline.pp_class cls ]
  in
  match (r.Pipeline.schedule, r.Pipeline.milp.Dvs_milp.Solver.solution) with
  | Some sched, Some sol ->
    let obj = sol.Dvs_lp.Simplex.objective in
    let probs, savings = objective_checks ~answers e obj in
    let verify_problem, err =
      match r.Pipeline.verification with
      | Some v when v.Verify.meets_deadline ->
        ([], Some (100.0 *. v.Verify.energy_error))
      | Some _ -> ([ e.point ^ ": verification missed the deadline" ], None)
      | None -> ([ e.point ^ ": not verified" ], None)
    in
    let resim_problems =
      match resim with Some f -> f sched | None -> []
    in
    { key = e.point; objective = Some obj; savings_pct = savings;
      energy_error_pct = err;
      problems = class_problem @ probs @ verify_problem @ resim_problems }
  | _ ->
    { key = e.point; objective = None; savings_pct = None;
      energy_error_pct = None;
      problems = (e.point ^ ": no schedule") :: class_problem }
