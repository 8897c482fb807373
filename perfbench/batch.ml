(* The three batch workloads — grid-unfiltered, multi-input and
   warm-store — and the pass loop they share.  An op is one program's
   whole deadline set; a pass runs every op once, in an order drawn from
   the seed. *)

open Common
module Pipeline = Dvs_core.Pipeline
module Verify = Dvs_core.Verify
module Formulation = Dvs_core.Formulation
module Schedule = Dvs_core.Schedule
module Profile = Dvs_profile.Profile
module Deadlines = Dvs_workloads.Deadlines
module Rng = Dvs_workloads.Rng
module Exec = Dvs_store.Exec
module Store = Dvs_store.Store

(* Work the traced passes count outside the program's own instruments. *)
type tally = {
  mutable sim_runs : int;  (** pinned profiling simulations that ran *)
  mutable edges : int list;  (** independent edges per result *)
  mutable prepare_s : float;
      (** warm-store: time to rebuild the formulations a store hit
          rebuilds, measured beside the op *)
}

(* [run obs tally] is the timed call; the function it returns runs the
   op's checks, re-simulating one point when given a generator. *)
type op = {
  program : string;
  run : Dvs_obs.t -> tally -> resim:Rng.t option -> Checks.verdict list;
}

type spec = {
  name : string;
  programs : string list;  (** compiled in set-up *)
  setup : unit -> unit;  (** the workload's own set-up, repeated *)
  ops : unit -> op list;  (** one pass *)
  path : Ledger.path;
  store : unit -> Store.t option;  (** the store the ops read, if any *)
  cleanup : unit -> unit;
}

let category profile ?(weight = 1.0) deadline =
  { Formulation.profile; weight; deadline }

(* Check expectations are computed once per point key and reused. *)
let expectations : (string, Checks.expect) Hashtbl.t = Hashtbl.create 64

let expect ~workload ~point ~config cats =
  let key = workload ^ "/" ^ point in
  match Hashtbl.find_opt expectations key with
  | Some e -> e
  | None ->
    let e = Checks.expect ~workload ~point ~config ~regulator cats in
    Hashtbl.replace expectations key e;
    e

let pick_resim resim n =
  match resim with Some rng -> Rng.int rng n | None -> -1

(* Checks for a deadline sweep of one program. *)
let sweep_checks ~answers ~workload ~config ~program ~profile ~deadlines cfg
    ~memory tally (sw : Pipeline.sweep_result) ~resim =
  let sampled = pick_resim resim (Array.length sw.Pipeline.results) in
  Array.to_list
    (Array.mapi
       (fun i (r : Pipeline.result) ->
         tally.edges <- r.Pipeline.independent_edges :: tally.edges;
         let point = Printf.sprintf "%s#%d" program i in
         let e =
           expect ~workload ~point ~config [ category profile deadlines.(i) ]
         in
         let resim =
           if i = sampled then
             Some (Checks.resimulate machine cfg ~memory ~deadline:deadlines.(i))
           else None
         in
         Checks.result ~answers ?resim e r)
       sw.Pipeline.results)

(* The formulation rebuild a sweep (and a store hit) runs before
   anything it has a span for, timed beside the op: the filter, the
   formulation and, for a live sweep, the continuous relaxation. *)
let prepare_time ~relax ~config profile deadlines =
  let cats = [ category profile (Array.fold_left Float.max 0.0 deadlines) ] in
  snd
    (Util.time (fun () ->
         let prep = Pipeline.prepare ~config ~regulator cats in
         if relax then
           ignore
             (Dvs_core.Relaxation.prepare prep.Pipeline.prep_formulation
                ~regulator cats)))

(* ---- grid-unfiltered ------------------------------------------------- *)

let paper_programs = [ "adpcm"; "epic"; "gsm"; "mpeg"; "ghostscript"; "mpg123" ]

let grid ~size ~answers =
  let workload = "grid-unfiltered" and path = Ledger.Sweep in
  let programs =
    match size with Full -> paper_programs | Tiny -> [ "ghostscript" ]
  in
  let op program =
    let cfg, memory = load program ~input:(W.default_input (W.find program)) in
    let run obs tally =
      let profile =
        span obs "profile.collect" (fun () -> Profile.collect machine cfg ~memory)
      in
      tally.sim_runs <- tally.sim_runs + Array.length profile.Profile.runs;
      let deadlines = Deadlines.sweep_of_profile profile in
      let session =
        span obs "verify.record" (fun () ->
            Verify.Session.create ~obs machine cfg ~memory)
      in
      let config = pipeline_config ~filter:false ~obs in
      let sw =
        span obs "dvs.optimize" (fun () ->
            Pipeline.optimize_sweep ~config ~verify_config:machine ~profile
              ~session machine cfg ~memory ~deadlines)
      in
      fun ~resim ->
        if Dvs_obs.enabled obs then
          tally.prepare_s <-
            tally.prepare_s +. prepare_time ~relax:true ~config profile deadlines;
        sweep_checks ~answers ~workload ~config ~program ~profile ~deadlines
          cfg ~memory tally sw ~resim
    in
    { program; run }
  in
  { name = workload; programs; setup = ignore; path;
    ops = (fun () -> List.map op programs);
    store = (fun () -> None); cleanup = ignore }

(* ---- multi-input ----------------------------------------------------- *)

let multi ~size ~answers =
  let workload = "multi-input" and path = Ledger.Multi in
  let programs =
    match size with
    | Full -> [ "adpcm"; "epic"; "gsm"; "mpeg"; "mpg123"; "jpeg" ]
    | Tiny -> [ "gsm" ]
  in
  let op program =
    let w = W.find program in
    let inputs = List.map (fun input -> load program ~input) w.W.inputs in
    let cfg, memory0 = List.hd inputs in
    let weight = 1.0 /. float_of_int (List.length inputs) in
    let run obs tally =
      let profiles =
        List.map
          (fun (_, memory) ->
            let p =
              span obs "profile.collect" (fun () ->
                  Profile.collect machine cfg ~memory)
            in
            tally.sim_runs <- tally.sim_runs + Array.length p.Profile.runs;
            p)
          inputs
      in
      let session =
        span obs "verify.record" (fun () ->
            Verify.Session.create ~obs machine cfg ~memory:memory0)
      in
      let config = pipeline_config ~filter:true ~obs in
      let points =
        List.init (Array.length Deadlines.fractions) (fun i ->
            let cats =
              List.map
                (fun p -> category p ~weight (Deadlines.of_profile p).(i))
                profiles
            in
            let r =
              span obs "dvs.optimize" (fun () ->
                  Pipeline.optimize_multi ~config ~verify_config:machine
                    ~session ~regulator ~memory:memory0 cats)
            in
            (cats, r))
      in
      fun ~resim ->
        let sampled = pick_resim resim (List.length points) in
        List.mapi
          (fun i (cats, (r : Pipeline.result)) ->
            tally.edges <- r.Pipeline.independent_edges :: tally.edges;
            let point = Printf.sprintf "%s#%d" program i in
            let e = expect ~workload ~point ~config cats in
            let resim =
              if i = sampled then
                Some
                  (Checks.resimulate machine cfg ~memory:memory0
                     ~deadline:(List.hd cats).Formulation.deadline)
              else None
            in
            Checks.result ~answers ?resim e r)
          points
    in
    { program; run }
  in
  { name = workload; programs; setup = ignore; path;
    ops = (fun () -> List.map op programs);
    store = (fun () -> None); cleanup = ignore }

(* ---- warm-store ------------------------------------------------------ *)

(* What the live fill produced, for the bit-identity check. *)
type filled = { f_results : Pipeline.result array }

let same_result (a : Pipeline.result) (b : Pipeline.result) =
  let bits = function Some x -> Some (Int64.bits_of_float x) | None -> None in
  bits a.Pipeline.predicted_energy = bits b.Pipeline.predicted_energy
  && (match (a.Pipeline.schedule, b.Pipeline.schedule) with
     | Some x, Some y -> Schedule.equal x y
     | None, None -> true
     | _ -> false)
  &&
  match (a.Pipeline.verification, b.Pipeline.verification) with
  | Some x, Some y ->
    Int64.bits_of_float x.Verify.stats.Dvs_machine.Cpu.energy
    = Int64.bits_of_float y.Verify.stats.Dvs_machine.Cpu.energy
    && Int64.bits_of_float x.Verify.stats.Dvs_machine.Cpu.time
       = Int64.bits_of_float y.Verify.stats.Dvs_machine.Cpu.time
  | None, None -> true
  | _ -> false

let warm_store ~size ~answers =
  let workload = "warm-store" in
  let programs =
    match size with Full -> paper_programs | Tiny -> [ "ghostscript" ]
  in
  let fills = ref 0 in
  let store = ref None in
  let filled : (string, filled) Hashtbl.t = Hashtbl.create 8 in
  let config obs = pipeline_config ~filter:true ~obs in
  let source program = program ^ ":" ^ W.default_input (W.find program) in
  let live_session cfg memory () =
    Verify.Session.create machine cfg ~memory
  in
  (* Set-up: a fresh store, filled by a live run of every op. *)
  let setup () =
    Option.iter (fun st -> Util.rm_rf (Store.root st)) !store;
    incr fills;
    let root =
      Filename.concat work_dir
        (Printf.sprintf "store-%d-%d" (Unix.getpid ()) !fills)
    in
    Util.rm_rf root;
    let st = Store.open_ ~root () in
    store := Some st;
    List.iter
      (fun program ->
        let cfg, memory =
          load program ~input:(W.default_input (W.find program))
        in
        let p =
          Exec.profile ~store:st ~source:(source program) machine cfg ~memory
        in
        let deadlines = Deadlines.sweep_of_profile p in
        let sw =
          Exec.optimize_sweep ~store:st ~config:(config Dvs_obs.disabled)
            ~verify_config:machine ~profile:p
            ~session:(live_session cfg memory) machine cfg ~memory ~deadlines
        in
        Hashtbl.replace filled program
          { f_results = sw.Pipeline.results })
      programs
  in
  (* Traced passes read through a handle that reports the store.*
     counters into the pass's registry; it is opened once per pass. *)
  let traced = ref None in
  let handle obs =
    match (!store, !traced) with
    | None, _ -> invalid_arg "warm-store: no store"
    | Some st, _ when not (Dvs_obs.enabled obs) -> st
    | Some _, Some (o, h) when o == obs -> h
    | Some st, _ ->
      let h = Store.open_ ~obs ~root:(Store.root st) () in
      traced := Some (obs, h);
      h
  in
  let op program =
    let cfg, memory = load program ~input:(W.default_input (W.find program)) in
    let run obs tally =
      let st = handle obs in
      let before = Store.counts st in
      let p =
        span obs "store.profile" (fun () ->
            Exec.profile ~store:st ~source:(source program) machine cfg ~memory)
      in
      if (Store.counts st).Store.misses > before.Store.misses then
        tally.sim_runs <- tally.sim_runs + Array.length p.Profile.runs;
      let deadlines = Deadlines.sweep_of_profile p in
      let config = config obs in
      let sw =
        span obs "store.optimize" (fun () ->
            Exec.optimize_sweep ~store:st ~config ~verify_config:machine
              ~profile:p ~session:(live_session cfg memory) machine cfg
              ~memory ~deadlines)
      in
      fun ~resim ->
        if Dvs_obs.enabled obs then
          tally.prepare_s <-
            tally.prepare_s +. prepare_time ~relax:false ~config p deadlines;
        let fill = Hashtbl.find filled program in
        let verdicts =
          sweep_checks ~answers ~workload ~config ~program ~profile:p
            ~deadlines cfg ~memory tally sw ~resim
        in
        List.mapi
          (fun i (v : Checks.verdict) ->
            if same_result sw.Pipeline.results.(i) fill.f_results.(i) then v
            else
              { v with
                Checks.problems =
                  (v.Checks.key ^ ": differs from the live fill")
                  :: v.Checks.problems })
          verdicts
    in
    { program; run }
  in
  { name = workload; programs; setup; path = Ledger.Store;
    ops = (fun () -> List.map op programs);
    store = (fun () -> !store);
    cleanup = (fun () -> Option.iter (fun st -> Util.rm_rf (Store.root st)) !store) }

(* ---- the pass loop --------------------------------------------------- *)

(* Set-up repeats until it has run for [setup_budget_s] (at least
   [min_setups] times, at most [max_setups]), so that a set-up of a
   millisecond still gives a steady median. *)
let min_setups = function Full -> 3 | Tiny -> 1

let setup_budget_s = function Full -> 0.3 | Tiny -> 0.0

let max_setups = 1000

(* Instruments of the program the per-layer metrics read. *)
let counters =
  [ "solver.solves"; "solver.nodes"; "solver.lp_solves"; "solver.lp_pivots";
    "cuts.applied"; "sweep.points"; "sweep.points_pruned_by_bound";
    "sweep.instances_warm_started"; "lp_cache.hits"; "lp_cache.misses";
    "lp.flops"; "lp.pivots_saved_warm"; "lu.refactorizations";
    "lp.presolve_rows_removed"; "sim.summary_hits"; "sim.summary_misses";
    "sim.spliced_segments"; "store.sim_hits"; "store.sim_misses";
    "store.solve_hits"; "store.solve_misses"; "store.sweep_hits";
    "store.sweep_misses"; "store.corrupt"; "service.cache_replies" ]

(* Fold one traced pass into the raw per-layer sums. *)
let absorb_trace (raw : Raw.t) ~path ~prepare obs =
  let entries = Tr.entries (Dvs_obs.trace obs) in
  let sp = Ledger.spans_of entries in
  List.iter (fun (l, v) -> Raw.add raw ("self." ^ l) v)
    (Ledger.batch ~path ~prepare sp);
  Raw.add raw "incl.dvs"
    (Ledger.total sp "dvs.optimize" +. Ledger.total sp "store.optimize");
  let snap = Dvs_obs.Metrics.snapshot (Dvs_obs.metrics obs) in
  List.iter (fun c -> Raw.add raw ("c." ^ c) (counter snap c)) counters;
  Raw.add raw "warm_events"
    (float_of_int
       (List.length
          (List.filter (fun (e : Tr.entry) -> e.Tr.name = "solver.warm_start")
             entries)));
  Raw.add raw "dropped" (float_of_int (Tr.dropped (Dvs_obs.trace obs)))

(* One timed op of the untraced passes, its times scaled to the
   reference host (see [Host]). *)
type sample = { s_program : string; s_wall : float; s_cpu : float; s_points : int }

(* Rates from each program's median op across passes: a slow pass moves
   one sample of each program, not the figures. *)
let rates samples =
  let programs = List.sort_uniq compare (List.map (fun s -> s.s_program) samples) in
  let per_program =
    List.map
      (fun p ->
        let mine = List.filter (fun s -> s.s_program = p) samples in
        ( Util.median (List.map (fun s -> s.s_wall) mine),
          Util.median (List.map (fun s -> s.s_cpu) mine),
          (List.hd mine).s_points ))
      programs
  in
  let wall = List.fold_left (fun a (w, _, _) -> a +. w) 0.0 per_program in
  let cpu = List.fold_left (fun a (_, c, _) -> a +. c) 0.0 per_program in
  let pts = List.fold_left (fun a (_, _, n) -> a + n) 0 per_program in
  let lats =
    List.map
      (fun (w, _, n) -> 1e3 *. w /. float_of_int (Int.max 1 n))
      per_program
  in
  ( float_of_int pts /. wall,
    float_of_int (List.length per_program) /. wall,
    Util.median (List.map (fun (w, _, _) -> w) per_program),
    Util.median lats,
    Util.percentile lats 0.99,
    cpu /. float_of_int (Int.max 1 pts) )

let run ~size ~seed ~seconds ~traced spec =
  (* The ops read programs through Workload.load's memo: fill it first so
     no timed region compiles. *)
  List.iter
    (fun n ->
      let w = W.find n in
      List.iter (fun input -> ignore (W.load w ~input)) w.W.inputs)
    spec.programs;
  Host.warm ();
  let speeds = ref [] in
  let rec setups acc spent n =
    if n >= min_setups size && (spent >= setup_budget_s size || n >= max_setups)
    then List.rev acc
    else
      let (compile_s, rest), k =
        Host.measure (fun () ->
            let (), compile_s = Util.time (fun () -> compile spec.programs) in
            let (), rest = Util.time spec.setup in
            (compile_s, rest))
      in
      let s = compile_s +. rest in
      setups ((k *. s, k *. compile_s) :: acc) (spent +. s) (n + 1)
  in
  let setups = setups [] 0.0 0 in
  let rng = Rng.create seed in
  let ops = spec.ops () in
  let raw = Raw.create () in
  let samples = ref [] and verdicts = ref [] in
  let timed = ref 0.0 and attempted = ref 0 and failed = ref 0 in
  let pass_walls = [| []; [] |] in
  let exported = ref false in
  let pass = ref 0 in
  let more () =
    !pass = 0 || !timed < seconds
    || (traced && (pass_walls.(0) = [] || pass_walls.(1) = []))
  in
  while more () do
    let tracing = traced && !pass mod 2 = 1 in
    let obs =
      if tracing then Dvs_obs.create ~trace_capacity:2_000_000 ()
      else Dvs_obs.disabled
    in
    let tally = { sim_runs = 0; edges = []; prepare_s = 0.0 } in
    let pass_wall = ref 0.0 and pass_points = ref 0 in
    List.iter
      (fun op ->
        (* Every op starts from a collected heap, so it pays for its own
           garbage only, not for the checks' or the previous op's, and
           the peak heap does not depend on the order ops ran in. *)
        Gc.full_major ();
        let (check, wall, cpu), k =
          Host.measure (fun () ->
              let c0 = Util.cpu_now () in
              let t0 = Util.now () in
              let check = span obs "bench.op" (fun () -> op.run obs tally) in
              (check, Util.now () -. t0, Util.cpu_now () -. c0))
        in
        speeds := k :: !speeds;
        let resim = if Rng.int rng 3 = 0 then Some rng else None in
        let vs = check ~resim in
        let answered =
          List.length (List.filter (fun v -> v.Checks.objective <> None) vs)
        in
        incr attempted;
        if List.exists (fun v -> v.Checks.problems <> []) vs then incr failed;
        verdicts := vs @ !verdicts;
        pass_points := !pass_points + answered;
        timed := !timed +. wall;
        pass_wall := !pass_wall +. wall;
        if not tracing then
          samples :=
            { s_program = op.program; s_wall = k *. wall; s_cpu = k *. cpu;
              s_points = answered }
            :: !samples)
      (Util.shuffle rng ops);
    let k = if tracing then 1 else 0 in
    pass_walls.(k) <- !pass_wall :: pass_walls.(k);
    if tracing then begin
      absorb_trace raw ~path:spec.path ~prepare:tally.prepare_s obs;
      Raw.add raw "points" (float_of_int !pass_points);
      Raw.add raw "sim_runs" (float_of_int tally.sim_runs);
      List.iter (fun e -> Raw.add raw "edges_sum" (float_of_int e)) tally.edges;
      Raw.add raw "edges_n" (float_of_int (List.length tally.edges));
      if not !exported then begin
        write_trace ~workload:spec.name obs;
        exported := true
      end
    end;
    incr pass
  done;
  if traced then begin
    Raw.set raw "untraced_wall" (Util.median pass_walls.(0));
    Raw.set raw "traced_wall" (Util.median pass_walls.(1));
    match spec.store () with
    | Some st ->
      Raw.set raw "store_bytes" (float_of_int (Store.disk_stats st).Store.bytes)
    | None -> ()
  end;
  spec.cleanup ();
  let points_per_s, ops_per_s, op_p50_s, lat_p50_ms, lat_p99_ms, cpu_per_point =
    rates !samples
  in
  let vs = !verdicts in
  ( { setup_s = List.map fst setups; compile_s = List.map snd setups;
      speeds = !speeds;
      points_per_s; ops_per_s; op_p50_s; lat_p50_ms; lat_p99_ms; cpu_per_point;
      attempted = !attempted; failed = !failed;
      points = List.length (List.filter (fun v -> v.Checks.objective <> None) vs);
      savings = savings_by_key vs;
      errors = List.filter_map (fun v -> v.Checks.energy_error_pct) vs;
      problems = List.concat_map (fun v -> v.Checks.problems) vs },
    raw )
