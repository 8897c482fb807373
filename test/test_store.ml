(* Experiment-store tests (DESIGN.md section 14): canonical keys,
   envelope round-trips, corruption-as-miss (including a seeded random
   corruption property), the LRU bound, epoch invalidation, two-process
   concurrency, stable-instrument capture/replay, and the end-to-end
   cold-vs-warm equivalence of a store-backed solve. *)

module Store = Dvs_store.Store
module Key = Dvs_store.Key
module Capture = Dvs_store.Capture
module Codec = Dvs_store.Codec
module Exec = Dvs_store.Exec
module Json = Dvs_obs.Json
module Metrics = Dvs_obs.Metrics
module Workload = Dvs_workloads.Workload
module Profile = Dvs_profile.Profile

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_root =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "dvs_store_test_%d_%d" (Unix.getpid ()) !n)
    in
    rm_rf dir;
    dir

let sample_key ?(salt = 0) () =
  Key.make ~kind:"sim"
    [ ("program", Key.S "adpcm:default");
      ("salt", Key.I salt);
      ("freq", Key.F 2.5e8);
      ("modes", Key.L [ Key.I 1; Key.I 2; Key.I 3 ]) ]

let sample_payload = Json.Obj [ ("x", Json.Int 42); ("y", Json.String "z") ]

let entry_path st key = Filename.concat (Store.root st) (Key.filename key)

(* --- keys ------------------------------------------------------------- *)

(* Every result-affecting pipeline and solver setting is a component of
   the solve key: flipping any one of them must give a key distinct from
   the default's and from every other flip, so a stored result is never
   served for another configuration. *)
let check_solve_key_fields () =
  let module P = Dvs_core.Pipeline in
  let module S = Dvs_milp.Solver in
  let solver = S.Config.make ~jobs:1 () in
  let base = P.Config.make ~solver () in
  let res = base.P.Config.resilience in
  let with_solver solver = { base with P.Config.solver } in
  let variants =
    [ ("default", base);
      ("filter", { base with P.Config.filter = false });
      ("cold_verify", { base with P.Config.cold_verify = true });
      ("continuous_bound", { base with P.Config.continuous_bound = false });
      ( "entry",
        { base with
          P.Config.resilience =
            { res with P.Resilience.entry = P.Resilience.From_rounded_lp } } );
      ( "max_retries",
        { base with
          P.Config.resilience = { res with P.Resilience.max_retries = 0 } } );
      ("jobs", with_solver { solver with S.Config.jobs = 2 });
      ("max_nodes", with_solver { solver with S.Config.max_nodes = 10 });
      ( "time_limit",
        with_solver { solver with S.Config.time_limit = Some 1.0 } );
      ("presolve", with_solver { solver with S.Config.presolve = false });
      ( "refactor",
        with_solver
          { solver with S.Config.refactor = Some (Dvs_lp.Simplex.Pivots 8) } );
      ( "branching",
        with_solver (S.Config.with_branching S.Config.Pseudocost_gub solver) )
    ]
  in
  let key (c : P.Config.t) =
    Key.canonical
      (Key.make ~kind:"solve"
         (Codec.pipeline_components c
         @ Codec.solver_components c.P.Config.solver))
  in
  let keys = List.map (fun (name, c) -> (name, key c)) variants in
  List.iteri
    (fun i (a, ka) ->
      List.iteri
        (fun j (b, kb) ->
          if i < j && ka = kb then
            Alcotest.failf "%s and %s share a solve key" a b)
        keys)
    keys

let test_key () =
  let a =
    Key.make ~kind:"solve" [ ("b", Key.I 2); ("a", Key.F 1.5) ]
  in
  let b =
    Key.make ~kind:"solve" [ ("a", Key.F 1.5); ("b", Key.I 2) ]
  in
  Alcotest.(check string)
    "component order is canonicalized" (Key.canonical a) (Key.canonical b);
  Alcotest.(check string)
    "same filename too" (Key.filename a) (Key.filename b);
  let c =
    Key.make ~kind:"solve"
      [ ("a", Key.F (1.5 +. epsilon_float)); ("b", Key.I 2) ]
  in
  Alcotest.(check bool)
    "one ulp changes the key" false
    (Key.canonical a = Key.canonical c);
  let d = Key.make ~kind:"sweep" [ ("a", Key.F 1.5); ("b", Key.I 2) ] in
  Alcotest.(check bool)
    "kind is part of the identity" false (Key.filename a = Key.filename d);
  (match Key.make ~kind:"So lve" [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad kind accepted");
  (match Key.make ~kind:"solve" [ ("a|b", Key.I 1) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "component name with '|' accepted");
  Alcotest.(check string)
    "fnv-1a of empty string" "cbf29ce484222325" (Key.hash_hex "");
  check_solve_key_fields ()

(* --- envelope round-trip ---------------------------------------------- *)

let test_roundtrip () =
  let root = fresh_root () in
  let st = Store.open_ ~root () in
  let key = sample_key () in
  Alcotest.(check bool) "miss before put" true (Store.get_json st key = None);
  Store.put st key sample_payload;
  (match Store.get_json st key with
  | Some p ->
    Alcotest.(check bool) "payload round-trips" true
      (Json.equal p sample_payload)
  | None -> Alcotest.fail "hit expected after put");
  (* The on-disk envelope is a valid dvs-store/v1 document. *)
  let ic = open_in (entry_path st key) in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (match Json.of_string text with
  | Ok j -> (
    match Dvs_obs.Schema.validate_store j with
    | Ok () -> ()
    | Error e -> Alcotest.failf "envelope fails validate_store: %s" e)
  | Error e -> Alcotest.failf "envelope is not JSON: %s" e);
  (match Dvs_obs.Schema.validate_store (Json.Obj [ ("schema", Json.Int 3) ]) with
  | Ok () -> Alcotest.fail "garbage passed validate_store"
  | Error _ -> ());
  let c = Store.counts st in
  Alcotest.(check int) "one put" 1 c.Store.puts;
  Alcotest.(check int) "one hit" 1 c.Store.hits;
  Alcotest.(check int) "one miss" 1 c.Store.misses;
  let d = Store.disk_stats st in
  Alcotest.(check int) "one entry on disk" 1 d.Store.entries;
  Alcotest.(check (list (pair string int)))
    "kind breakdown" [ ("sim", 1) ] d.Store.by_kind;
  rm_rf root

(* --- corruption is a miss --------------------------------------------- *)

let test_corrupt_entry () =
  let root = fresh_root () in
  let st = Store.open_ ~root () in
  let key = sample_key () in
  Store.put st key sample_payload;
  let path = entry_path st key in
  (* Truncate: unparseable JSON. *)
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd 25;
  Unix.close fd;
  Alcotest.(check bool)
    "truncated entry is a miss" true
    (Store.get_json st key = None);
  Alcotest.(check bool) "and is deleted" false (Sys.file_exists path);
  Alcotest.(check int)
    "counted corrupt" 1 (Store.counts st).Store.corrupt;
  (* Flip one payload byte: parseable, checksum mismatch. *)
  Store.put st key sample_payload;
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let i = Str.search_forward (Str.regexp_string "42") text 0 in
  let bytes = Bytes.of_string text in
  Bytes.set bytes i '9';
  let oc = open_out path in
  output_bytes oc bytes;
  close_out oc;
  Alcotest.(check bool)
    "checksum mismatch is a miss" true
    (Store.get_json st key = None);
  (* Recompute path: a put after the miss works again. *)
  Store.put st key sample_payload;
  Alcotest.(check bool)
    "store recovers after corruption" true
    (Store.get_json st key <> None);
  rm_rf root

(* Seeded corruption property: whatever byte is damaged (or wherever the
   file is cut), a lookup returns either a miss or the original payload
   — never garbage, never an exception. *)
let qcheck_corruption =
  QCheck.Test.make ~name:"random corruption yields miss or original"
    ~count:150
    QCheck.(triple small_nat char bool)
    (fun (pos, c, truncate) ->
      let root = fresh_root () in
      let st = Store.open_ ~root () in
      let key = sample_key () in
      Store.put st key sample_payload;
      let path = entry_path st key in
      let ic = open_in path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let len = String.length text in
      let pos = pos mod len in
      (if truncate then begin
         let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
         Unix.ftruncate fd pos;
         Unix.close fd
       end
       else begin
         let bytes = Bytes.of_string text in
         Bytes.set bytes pos c;
         let oc = open_out path in
         output_bytes oc bytes;
         close_out oc
       end);
      let ok =
        match Store.get_json st key with
        | None -> true
        | Some p -> Json.equal p sample_payload
      in
      rm_rf root;
      ok)

(* --- LRU bound -------------------------------------------------------- *)

let test_lru_bound () =
  let root = fresh_root () in
  let st = Store.open_ ~max_entries:4 ~root () in
  let now = Unix.gettimeofday () in
  (* Distinct mtimes make the eviction order deterministic (the real
     clock ticks too coarsely for back-to-back writes). *)
  for i = 0 to 4 do
    let key = sample_key ~salt:i () in
    Store.put st key sample_payload;
    let t = now -. 100.0 +. (10.0 *. float_of_int i) in
    Unix.utimes (entry_path st key) t t
  done;
  (* Putting a 6th entry must evict the oldest two (salts 0 and 1),
     keeping the most recently used. *)
  Store.put st (sample_key ~salt:5 ()) sample_payload;
  Alcotest.(check int)
    "bounded to max_entries" 4 (Store.disk_stats st).Store.entries;
  Alcotest.(check bool)
    "oldest entry evicted" true
    (Store.get_json st (sample_key ~salt:0 ()) = None);
  Alcotest.(check bool)
    "newest entry survives" true
    (Store.get_json st (sample_key ~salt:5 ()) <> None);
  Alcotest.(check bool)
    "evictions counted" true ((Store.counts st).Store.evictions >= 2);
  rm_rf root

(* --- epoch invalidation ----------------------------------------------- *)

let test_epoch_bump () =
  let root = fresh_root () in
  let st = Store.open_ ~root () in
  let key = sample_key () in
  Store.put st key sample_payload;
  let st2 = Store.open_ ~epoch:(Store.format_epoch + 1) ~root () in
  Alcotest.(check bool)
    "old-epoch entry is stale" true
    (Store.get_json st2 key = None);
  Alcotest.(check int) "counted stale" 1 (Store.counts st2).Store.stale;
  Alcotest.(check bool)
    "stale entry removed on sight" false
    (Sys.file_exists (entry_path st key));
  rm_rf root

(* --- two-process concurrency ------------------------------------------ *)

let concurrency_payload i =
  Json.Obj [ ("i", Json.Int i); ("pad", Json.String (String.make 4096 'p')) ]

let concurrency_rounds = 100

(* The put-hammering side of the two-process test.  [Unix.fork] is
   unavailable once any suite has spawned a domain, so test_main
   re-executes the whole test binary with [child_env_var] set and
   branches here before Alcotest takes over. *)
let child_env_var = "DVS_STORE_TEST_CHILD"

let child_main root =
  let st = Store.open_ ~root () in
  for i = 0 to concurrency_rounds - 1 do
    Store.put st
      (sample_key ~salt:(i mod 8) ())
      (concurrency_payload (i mod 8))
  done;
  exit 0

let test_concurrent_processes () =
  let root = fresh_root () in
  let st = Store.open_ ~root () in
  let pid =
    Unix.create_process_env Sys.executable_name
      [| Sys.executable_name |]
      (Array.append (Unix.environment ())
         [| child_env_var ^ "=" ^ root |])
      Unix.stdin Unix.stdout Unix.stderr
  in
  (* Concurrent puts and gets on the keys the child is hammering.  Every
     lookup must be a miss or a complete payload — never a torn read. *)
  let torn = ref 0 in
  for i = 0 to concurrency_rounds - 1 do
    let salt = i mod 8 in
    Store.put st (sample_key ~salt ()) (concurrency_payload salt);
    match Store.get_json st (sample_key ~salt ()) with
    | None -> ()
    | Some p -> if not (Json.equal p (concurrency_payload salt)) then incr torn
  done;
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "child exited cleanly" true
    (status = Unix.WEXITED 0);
  Alcotest.(check int) "no torn reads" 0 !torn;
  let r = Store.verify st in
  Alcotest.(check int) "no corrupt entries on disk" 0
    (List.length r.Store.vr_corrupt);
  Alcotest.(check int) "all entries intact" r.Store.vr_checked r.Store.vr_ok;
  rm_rf root

(* --- gc and verify ----------------------------------------------------- *)

let test_gc () =
  let root = fresh_root () in
  let st = Store.open_ ~root () in
  Store.put st (sample_key ~salt:0 ()) sample_payload;
  Store.put st (sample_key ~salt:1 ()) sample_payload;
  (* Plant a foreign file: gc must drop it, verify must report it. *)
  let oc = open_out (Filename.concat root "sim-0000000000000000.json") in
  output_string oc "not json";
  close_out oc;
  let v = Store.verify st in
  Alcotest.(check int) "verify flags the foreign file" 1
    (List.length v.Store.vr_corrupt);
  let r = Store.gc st in
  Alcotest.(check int) "gc scanned everything" 3 r.Store.gc_scanned;
  Alcotest.(check int) "gc kept the good entries" 2 r.Store.gc_kept;
  Alcotest.(check int) "gc dropped the corrupt file" 1 r.Store.gc_corrupt;
  Alcotest.(check int)
    "disk agrees" 2 (Store.disk_stats st).Store.entries;
  rm_rf root

(* --- capture / replay -------------------------------------------------- *)

let test_capture_replay () =
  let obs1 = Dvs_obs.metrics_only () in
  let m1 = Dvs_obs.metrics obs1 in
  let before = Capture.state obs1 in
  Metrics.Counter.add (Metrics.counter m1 "sim.dyn_instrs") ~slot:0 123;
  Metrics.Counter.add
    (Metrics.counter m1 ~stability:Metrics.Volatile "solver.nodes")
    ~slot:0 7;
  Metrics.Gauge.set (Metrics.gauge m1 "sim.time_seconds") 0.125;
  let cap = Capture.diff ~before ~after:(Capture.state obs1) in
  Alcotest.(check bool)
    "volatile counters excluded" true
    (not (List.mem_assoc "solver.nodes" cap.Capture.counters));
  (* JSON round-trip, then replay into a fresh registry. *)
  let cap =
    match Capture.of_json (Capture.to_json cap) with
    | Ok c -> c
    | Error e -> Alcotest.failf "capture does not round-trip: %s" e
  in
  let obs2 = Dvs_obs.metrics_only () in
  Capture.replay obs2 cap;
  let m2 = Dvs_obs.metrics obs2 in
  Alcotest.(check int)
    "counter delta replayed" 123
    (Metrics.Counter.value (Metrics.counter m2 "sim.dyn_instrs"));
  Alcotest.(check int)
    "volatile counter not replayed" 0
    (Metrics.Counter.value
       (Metrics.counter m2 ~stability:Metrics.Volatile "solver.nodes"));
  Alcotest.(check bool)
    "gauge value bit-identical" true
    (Int64.equal
       (Int64.bits_of_float
          (Metrics.Gauge.value (Metrics.gauge m2 "sim.time_seconds")))
       (Int64.bits_of_float 0.125))

(* --- cold vs warm solve ------------------------------------------------ *)

let test_exec_cold_warm () =
  let w = Workload.find "adpcm" in
  let input = Workload.default_input w in
  let cfg, _, mem = Workload.load w ~input in
  let machine =
    Workload.eval_config ~mode_table:Dvs_power.Mode.xscale3 ()
  in
  let p = Profile.collect machine cfg ~memory:mem in
  let n = Dvs_power.Mode.size machine.Dvs_machine.Config.mode_table in
  let t_fast = Profile.pinned_time p ~mode:(n - 1) in
  let t_slow = Profile.pinned_time p ~mode:0 in
  let deadline = t_fast +. (0.5 *. (t_slow -. t_fast)) in
  let root = fresh_root () in
  let run obs =
    let store = Store.open_ ~obs ~root () in
    let solver = Dvs_milp.Solver.Config.make ~obs () in
    let config =
      Dvs_core.Pipeline.Config.make ~solver ()
      |> Dvs_core.Pipeline.Config.with_obs obs
    in
    Exec.optimize_multi ~store ~config ~verify_config:machine
      ~regulator:machine.Dvs_machine.Config.regulator ~memory:mem
      [ { Dvs_core.Formulation.profile = p; weight = 1.0; deadline } ]
  in
  let obs_cold = Dvs_obs.metrics_only () in
  let r_cold = run obs_cold in
  let obs_warm = Dvs_obs.metrics_only () in
  let r_warm = run obs_warm in
  (* Bit-equal results: the stored essence of both runs renders
     identically (outcome, solution, schedule, predicted energy,
     verification — every float compared by rendered bits). *)
  let essence r =
    Json.to_string (Codec.essence_to_json (Codec.essence_of_result r))
  in
  Alcotest.(check string)
    "warm result bit-equal to cold" (essence r_cold) (essence r_warm);
  let vol obs name =
    Metrics.Counter.value
      (Metrics.counter (Dvs_obs.metrics obs) ~stability:Metrics.Volatile
         name)
  in
  Alcotest.(check int) "cold run missed" 1 (vol obs_cold "store.solve_misses");
  Alcotest.(check int) "warm run hit" 1 (vol obs_warm "store.solve_hits");
  Alcotest.(check int)
    "warm run ran zero LP solves" 0 (vol obs_warm "solver.lp_solves");
  Alcotest.(check int)
    "warm run ran zero simulations" 0 (vol obs_warm "sim.summary_misses");
  (* The deterministic metric subsets agree exactly. *)
  Alcotest.(check string)
    "stable metric subsets bit-identical"
    (Json.to_string
       (Metrics.stable_subset (Metrics.snapshot (Dvs_obs.metrics obs_cold))))
    (Json.to_string
       (Metrics.stable_subset (Metrics.snapshot (Dvs_obs.metrics obs_warm))));
  rm_rf root

let suite =
  [ Alcotest.test_case "canonical keys" `Quick test_key;
    Alcotest.test_case "envelope round-trip" `Quick test_roundtrip;
    Alcotest.test_case "corrupted entry is a miss" `Quick test_corrupt_entry;
    QCheck_alcotest.to_alcotest qcheck_corruption;
    Alcotest.test_case "LRU bound" `Quick test_lru_bound;
    Alcotest.test_case "epoch bump invalidates" `Quick test_epoch_bump;
    Alcotest.test_case "two-process concurrency" `Quick
      test_concurrent_processes;
    Alcotest.test_case "gc and verify" `Quick test_gc;
    Alcotest.test_case "capture/replay" `Quick test_capture_replay;
    Alcotest.test_case "cold vs warm solve" `Quick test_exec_cold_warm ]
