(* service-closed: an in-process dvsd on a Unix socket, driven by a
   closed loop of two synchronous Loadgen clients.  Models are warmed in
   set-up, so a request pays for queueing, the protocol, a small filtered
   solve and a verification replay — never for profiling. *)

open Common
module P = Dvs_service.Protocol
module Engine = Dvs_service.Engine
module Daemon = Dvs_service.Daemon
module Loadgen = Dvs_service.Loadgen
module Profile = Dvs_profile.Profile
module Pipeline = Dvs_core.Pipeline

let workload = "service-closed"

let programs = function
  | Full -> [ "ghostscript"; "adpcm"; "gsm"; "mpg123" ]
  | Tiny -> [ "ghostscript" ]

(* Deadline positions the clients draw from, uniformly by seed. *)
let fracs = [ 0.1; 0.3; 0.5; 0.7; 0.9 ]

let setup_reps = function Full -> 3 | Tiny -> 1

(* The timed load runs as sub-legs; the figures are medians over them.
   Each sub-leg's p99 has at least two samples beyond it, the run's
   2000+ requests at least twenty. *)
let sub_legs = function Full -> 10 | Tiny -> 2

let min_requests = function Full -> 200 | Tiny -> 20

let warmup_requests = function Full -> 200 | Tiny -> 20

type daemon = { d : Daemon.t; runner : Thread.t }

let socket = Filename.concat work_dir (Printf.sprintf "dvsd-%d.sock" (Unix.getpid ()))

let start ~size ~obs =
  Util.mkdir_p work_dir;
  let engine_config =
    (* The reply cache outlives the timed leg, so the checks can read
       back every reply by its id. *)
    Engine.Config.make ~workers:2 ~reply_cache:1_000_000 ~obs ()
  in
  let d = Daemon.start ~engine_config ~socket () in
  let runner = Thread.create Daemon.run d in
  Engine.warm (Daemon.engine d) (List.map (fun p -> (p, None)) (programs size));
  { d; runner }

let stop t =
  Daemon.stop t.d;
  Thread.join t.runner

(* Closed loop: arrivals are due at once, so each client sends its next
   request as soon as the previous reply lands. *)
let leg ~size ~seed ~name ~requests =
  Loadgen.leg ~clients:2
    ~workloads:(List.map (fun p -> (p, None)) (programs size))
    ~fracs ~seed ~name ~requests ~rate_hz:1e9 ()

(* Per (program, frac): the deadline the engine derives and the check
   expectations, from a profile of our own. *)
let expectations ~size =
  let config = Pipeline.Config.default in
  List.map
    (fun program ->
      let cfg, memory = load program ~input:(W.default_input (W.find program)) in
      let p = Profile.collect machine cfg ~memory in
      let n = Array.length p.Profile.runs in
      let t_fast = Profile.pinned_time p ~mode:(n - 1) in
      let t_slow = Profile.pinned_time p ~mode:0 in
      ( program,
        List.map
          (fun f ->
            let deadline = t_fast +. (f *. (t_slow -. t_fast)) in
            let point = Printf.sprintf "%s@%g" program f in
            ( deadline,
              Checks.expect ~workload ~point ~config ~regulator
                [ { Dvs_core.Formulation.profile = p; weight = 1.0; deadline } ] ))
          fracs ))
    (programs size)

let verdict ~answers ~expects ~program (r : P.reply) =
  let fail why =
    { Checks.key = r.P.id; objective = None; savings_pct = None;
      energy_error_pct = None; problems = [ r.P.id ^ ": " ^ why ] }
  in
  match r.P.body with
  | P.Scheduled s -> (
    let cands = List.assoc program expects in
    match
      List.find_opt
        (fun (d, _) -> Float.abs ((d *. 1e3) -. s.P.deadline_ms) <= 1e-9 *. s.P.deadline_ms)
        cands
    with
    | None -> fail (Printf.sprintf "unexpected deadline %.9g ms" s.P.deadline_ms)
    | Some (_, e) -> (
      match (s.P.predicted_uj, s.P.measured_uj, s.P.measured_ms) with
      | Some obj, Some measured, Some ms ->
        let probs, savings = Checks.objective_checks ~answers e obj in
        let probs =
          (if s.P.cls = P.Full then []
           else [ r.P.id ^ ": class " ^ P.class_name s.P.cls ])
          @ (if s.P.meets_deadline = Some true
                && ms <= s.P.deadline_ms *. (1.0 +. Dvs_core.Verify.deadline_tolerance)
             then []
             else [ r.P.id ^ ": misses its deadline" ])
          @ probs
        in
        { Checks.key = e.Checks.point; objective = Some obj;
          savings_pct = savings;
          energy_error_pct = Some (100.0 *. Float.abs (measured -. obj) /. obj);
          problems = probs }
      | _ -> fail "reply carries no verified schedule"))
  | _ -> fail ("class " ^ P.class_name (P.class_of_reply r))

(* Read every reply of a leg back from the idempotent reply cache. *)
let replies engine ~size ~name ~requests =
  let progs = Array.of_list (programs size) in
  List.init requests (fun k ->
      let program = progs.(k mod Array.length progs) in
      let req =
        { P.id = Printf.sprintf "%s-%05d" name k;
          body =
            P.Optimize
              { workload = program; input = None; deadline_frac = 0.5;
                budget_s = None; chaos = None } }
      in
      (program, Engine.await (Engine.submit engine req)))

let snapshot engine = Engine.metrics_snapshot engine

(* One timed leg plus its checks. *)
type leg_result = {
  stats : Loadgen.stats;
  cpu : float;  (** process CPU over the leg *)
  k : float;  (** the host's speed factor over the leg ([Host]) *)
  after : Json.t;  (** engine metrics right after the leg *)
  rs : P.reply list;
  verdicts : Checks.verdict list;
}

let timed_leg ?(obs = Dvs_obs.disabled) ~size ~seed ~answers ~expects t ~name
    ~requests =
  let (stats, cpu), k =
    Host.measure (fun () ->
        let c0 = Util.cpu_now () in
        let stats =
          span obs "bench.leg" (fun () ->
              Loadgen.run ~socket (leg ~size ~seed ~name ~requests))
        in
        (stats, Util.cpu_now () -. c0))
  in
  let engine = Daemon.engine t.d in
  let after = snapshot engine in
  let rs = replies engine ~size ~name ~requests in
  let fetched = counter (snapshot engine) "service.cache_replies"
                -. counter after "service.cache_replies" in
  let verdicts =
    List.map (fun (program, r) -> verdict ~answers ~expects ~program r) rs
  in
  let verdicts =
    if int_of_float fetched = requests then verdicts
    else
      { Checks.key = name; objective = None; savings_pct = None;
        energy_error_pct = None;
        problems = [ "replies evicted from the reply cache before the check" ] }
      :: verdicts
  in
  { stats; cpu; k; after; rs = List.map snd rs; verdicts }

let warmup ~size ~seed =
  Loadgen.run ~socket (leg ~size ~seed ~name:"warmup" ~requests:(warmup_requests size))

(* Size a leg to last about [seconds], from the warm-up's throughput. *)
let requests_for ~floor ~seconds (w : Loadgen.stats) =
  let rate = float_of_int w.Loadgen.sent /. Float.max 1e-3 w.Loadgen.wall_s in
  Int.max floor (int_of_float (Float.ceil (rate *. seconds)))

(* The traced leg, on a second daemon whose engine reports into an
   enabled trace: per-request layer times into [raw].  [base] is the
   untraced leg of the same size, for the tracing overhead. *)
let traced_leg ~size ~seed ~answers ~expects ~requests ~(base : leg_result) raw =
  let obs = Dvs_obs.create ~trace_capacity:2_000_000 () in
  let t = start ~size ~obs in
  Fun.protect
    ~finally:(fun () -> stop t)
    (fun () ->
      ignore (warmup ~size ~seed);
      let before = snapshot (Daemon.engine t.d) in
      let l =
        timed_leg ~obs ~size ~seed ~answers ~expects t ~name:"traced" ~requests
      in
      let tr = Dvs_obs.trace obs in
      let entries = Tr.entries tr in
      let sp = Ledger.spans_of entries in
      (* Only the program spans recorded during the leg count, not the
         warm-up's: the leg's own span gives the window. *)
      let window =
        match Ledger.find sp "bench.leg" with
        | (ts, d) :: _ -> (ts, ts +. d)
        | [] -> (0.0, 0.0)
      in
      let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 l.rs in
      let exec_s = sum (fun r -> r.P.service_ms) /. 1e3 in
      let queue_s = sum (fun r -> r.P.queue_ms) /. 1e3 in
      let n = float_of_int (List.length l.rs) in
      let client_s = n *. l.stats.Loadgen.mean_ms /. 1e3 in
      let milp = Ledger.total ~window sp "solver.solve" in
      let check = Ledger.total ~window sp "sim.run" in
      Raw.add raw "points" n;
      Raw.add raw "self.milp" milp;
      Raw.add raw "self.verify.check" check;
      Raw.add raw "self.dvs" (exec_s -. milp -. check);
      Raw.add raw "self.service.queue" queue_s;
      (* Transport is the remainder of the client latency, so nothing
         is left unattributed. *)
      Raw.add raw "self.service.transport" (client_s -. exec_s -. queue_s);
      Raw.add raw "incl.dvs" exec_s;
      List.iter
        (fun c -> Raw.add raw ("c." ^ c) (counter l.after c -. counter before c))
        Batch.counters;
      let per_request h =
        let d f = histogram l.after h f -. histogram before h f in
        if d "count" > 0.0 then 1e3 *. d "sum" /. d "count" else 0.0
      in
      Raw.set raw "service.queue_ms_mean" (per_request "service.queue_seconds");
      Raw.set raw "service.server_ms_mean" (per_request "service.latency_seconds");
      Raw.set raw "service.client_ms_mean" l.stats.Loadgen.mean_ms;
      Raw.set raw "service.batched_fraction" l.stats.Loadgen.batched_fraction;
      Raw.add raw "warm_events"
        (float_of_int
           (List.length
              (List.filter
                 (fun (e : Tr.entry) -> e.Tr.name = "solver.warm_start")
                 entries)));
      Raw.add raw "dropped" (float_of_int (Tr.dropped tr));
      Raw.set raw "untraced_wall" base.stats.Loadgen.mean_ms;
      Raw.set raw "traced_wall" l.stats.Loadgen.mean_ms;
      write_trace ~workload obs;
      l.verdicts)

let run ~size ~seed ~seconds ~traced ~answers =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter (fun n -> ignore (load n ~input:(W.default_input (W.find n)))) (programs size);
  let daemon = ref None in
  let stop_daemon () = Option.iter stop !daemon; daemon := None in
  Host.warm ();
  let setups =
    List.init (if traced then 1 else setup_reps size) (fun _ ->
        stop_daemon ();
        let (s, compile_s), k =
          Host.measure (fun () ->
              let t0 = Util.now () in
              let (), compile_s = Util.time (fun () -> compile (programs size)) in
              daemon := Some (start ~size ~obs:Dvs_obs.disabled);
              (Util.now () -. t0, compile_s))
        in
        (k *. s, k *. compile_s))
  in
  let expects = expectations ~size in
  let raw = Raw.create () in
  let base, verdicts =
    Fun.protect ~finally:stop_daemon (fun () ->
        let t = Option.get !daemon in
        let w = warmup ~size ~seed in
        (* Traced, the run splits its time between an untraced leg (the
           overhead base) and a traced one, a quarter each: the traced
           leg's trace grows by thousands of entries per request. *)
        let legs, requests =
          if traced then
            (1, requests_for ~floor:(warmup_requests size) ~seconds:(seconds /. 4.0) w)
          else
            let k = sub_legs size in
            ( k,
              requests_for ~floor:(min_requests size)
                ~seconds:(seconds /. float_of_int k) w )
        in
        (* Loadgen draws a leg's deadline fractions from its seed alone,
           so each sub-leg gets a seed of its own: the median then spans
           ten request mixes, not one mix ten times. *)
        let base =
          List.init legs (fun i ->
              timed_leg ~size ~seed:(seed + (1000 * (i + 1))) ~answers
                ~expects t ~name:(Printf.sprintf "timed%d" i) ~requests)
        in
        (base, List.concat_map (fun l -> l.verdicts) base))
  in
  let verdicts =
    if traced then
      verdicts
      @ traced_leg ~size ~seed ~answers ~expects
          ~requests:(List.hd base).stats.Loadgen.sent ~base:(List.hd base) raw
    else verdicts
  in
  let answered l =
    float_of_int
      (List.length (List.filter (fun v -> v.Checks.objective <> None) l.verdicts))
  in
  (* Medians over the sub-legs, each scaled to the reference host. *)
  let med f = Util.median (List.map f base) in
  let wall l = l.k *. l.stats.Loadgen.wall_s in
  ( { setup_s = List.map fst setups; compile_s = List.map snd setups;
      speeds = List.map (fun l -> l.k) base;
      points_per_s = med (fun l -> answered l /. wall l);
      ops_per_s = med (fun l -> float_of_int l.stats.Loadgen.sent /. wall l);
      op_p50_s = med (fun l -> l.k *. l.stats.Loadgen.p50_ms) /. 1e3;
      lat_p50_ms = med (fun l -> l.k *. l.stats.Loadgen.p50_ms);
      lat_p99_ms = med (fun l -> l.k *. l.stats.Loadgen.p99_ms);
      cpu_per_point = med (fun l -> l.k *. l.cpu /. Float.max 1.0 (answered l));
      attempted = List.length verdicts;
      failed = List.length (List.filter (fun v -> v.Checks.problems <> []) verdicts);
      points =
        List.length (List.filter (fun v -> v.Checks.objective <> None) verdicts);
      savings = savings_by_key verdicts;
      errors = List.filter_map (fun v -> v.Checks.energy_error_pct) verdicts;
      problems = List.concat_map (fun v -> v.Checks.problems) verdicts },
    raw )
