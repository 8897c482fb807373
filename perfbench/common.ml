(* Configuration shared by the workloads: machine, regulator, solver
   settings, program compilation, and the per-run bookkeeping both
   runners fill in. *)

module W = Dvs_workloads.Workload
module Tr = Dvs_obs.Trace
module Json = Dvs_obs.Json

type size = Tiny | Full

(* The paper-equivalent 10 uF regulator at the workloads' 25x time scale
   (the bench harness's default, and the service's default
   capacitance). *)
let regulator = Dvs_power.Switch_cost.regulator ~capacitance:0.4e-6 ()

let machine =
  W.eval_config ~mode_table:Dvs_power.Mode.xscale3 ~regulator ()

(* jobs=1 keeps the solver deterministic; the limits are far above what
   any op needs, so hitting one shows up as a failed (non-Full) point. *)
let solver_config ~obs =
  Dvs_milp.Solver.Config.make ~jobs:1 ~max_nodes:4000 ~time_limit:120.0
    ~cache:(Dvs_milp.Lp_cache.create ~max_entries:16384 ())
    ~obs ()

(* A fresh LP cache per call: no op can hit relaxations a previous op
   solved. *)
let pipeline_config ~filter ~obs =
  Dvs_core.Pipeline.Config.make ~filter ~solver:(solver_config ~obs) ()

(* The benchmark's own span around a call into a layer. *)
let span obs name f = Tr.with_span (Dvs_obs.trace obs) ~slot:Ledger.slot name f

(* Compile every program from source and build its input images: the
   work [Workload.load] does on first use (and memoizes).  Set-up pays
   it once per repetition; the ops read the memoized result. *)
let compile names =
  List.iter
    (fun n ->
      let w = W.find n in
      let _, layout = Dvs_lang.Lower.compile_string w.W.source in
      List.iter (fun input -> ignore (w.W.fill layout ~input)) w.W.inputs)
    names

(* Ops read programs and input images through [Workload.load]; its first
   call compiles, so do that before any timed region. *)
let load name ~input =
  let cfg, _, mem = W.load (W.find name) ~input in
  (cfg, mem)

let work_dir = "perfbench/_run"

(* What one run measured, for both runners.  Every time is scaled to
   the reference host by the factor [Host.measure] took beside it.  The
   rates and latencies are medians over the run's samples (ops of one
   program across passes, or sub-legs of the service), so a burst of
   noise on the machine moves one sample, not the figure. *)
type measured = {
  setup_s : float list;  (** one per set-up repetition *)
  compile_s : float list;  (** the compile share of each repetition *)
  speeds : float list;
      (** the host's speed factor beside each timed region ([Host]) *)
  points_per_s : float;  (** verified deadline points per second *)
  ops_per_s : float;
  op_p50_s : float;  (** median op wall *)
  lat_p50_ms : float;
      (** per-point latency: op wall / points, or the request latency on
          the service *)
  lat_p99_ms : float;
  cpu_per_point : float;  (** process CPU seconds per verified point *)
  attempted : int;
  failed : int;
  points : int;  (** verified deadline points, all samples *)
  savings : (string * float) list;  (** per point key *)
  errors : float list;
  problems : string list;  (** check failures, for the report *)
}

(* Savings per distinct point key: every sample of a key has the same
   savings, so the mean does not depend on how often the seed drew it. *)
let savings_by_key (vs : Checks.verdict list) =
  List.filter_map
    (fun (v : Checks.verdict) ->
      Option.map (fun s -> (v.Checks.key, s)) v.Checks.savings_pct)
    vs

(* Totals of named counters and histograms in a dvs-metrics/v1
   snapshot. *)
let counter snap name =
  match Json.member "counters" snap with
  | Some cs -> (
    match Option.bind (Json.member name cs) (Json.member "total") with
    | Some v -> float_of_int (Option.value ~default:0 (Json.to_int v))
    | None -> 0.0)
  | None -> 0.0

let histogram snap name field =
  match Json.member "histograms" snap with
  | Some hs -> (
    match Option.bind (Json.member name hs) (Json.member field) with
    | Some v -> Option.value ~default:0.0 (Json.to_float v)
    | None -> 0.0)
  | None -> 0.0

let ratio a b = if b > 0.0 then a /. b else 0.0

(* The simulator's per-miss and per-transition events: hundreds of
   thousands per traced pass, and no ledger figure reads them. *)
let exported (e : Tr.entry) =
  e.Tr.dur <> None
  || not (List.mem e.Tr.name [ "sim.miss_window"; "sim.mode_transition" ])

(* Export the traced run: a dvs-trace/v1 log ([dvstool stats --check
   --trace] validates it) and a dvs-metrics/v1 snapshot. *)
let write_trace ~workload obs =
  Util.mkdir_p work_dir;
  let base = Filename.concat work_dir workload in
  let tr = Dvs_obs.trace obs in
  let kept = List.filter exported (Tr.entries tr) in
  let oc = open_out (base ^ ".trace.jsonl") in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun e ->
          Json.to_channel oc (Tr.entry_json e);
          output_char oc '\n')
        kept;
      Json.to_channel oc
        (Json.Obj
           [ ("ts", Json.Float 0.0); ("kind", Json.String "event");
             ("name", Json.String "trace.summary"); ("slot", Json.Int 0);
             ("stability", Json.String "volatile");
             ( "attrs",
               Json.Obj
                 [ ("entries", Json.Int (List.length kept));
                   ("dropped", Json.Int (Tr.dropped tr)) ] ) ]);
      output_char oc '\n');
  Util.write_file (base ^ ".metrics.json")
    (Json.to_string
       (Dvs_obs.Metrics.snapshot
          ~meta:[ ("workload", Json.String workload) ]
          (Dvs_obs.metrics obs)))
