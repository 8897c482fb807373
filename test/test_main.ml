let () =
  (* Re-exec entry point for the store's two-process concurrency test:
     the child instance hammers puts and exits before Alcotest runs. *)
  match Sys.getenv_opt Test_store.child_env_var with
  | Some root -> Test_store.child_main root
  | None ->
    Alcotest.run "dvs-repro"
      [ ("numeric", Test_numeric.suite); ("power", Test_power.suite);
        ("analytical", Test_analytical.suite); ("lp", Test_lp.suite); ("basis", Test_basis.suite); ("milp", Test_milp.suite); ("lang", Test_lang.suite); ("machine", Test_machine.suite); ("dvs", Test_dvs.suite); ("workloads", Test_workloads.suite); ("extensions", Test_extensions.suite); ("opt", Test_opt.suite); ("functions", Test_functions.suite); ("ooo", Test_ooo.suite); ("misc", Test_misc.suite); ("formulation", Test_formulation.suite); ("resilience", Test_resilience.suite); ("obs", Test_obs.suite); ("sweep", Test_sweep.suite); ("liyao", Test_liyao.suite); ("summary", Test_summary.suite); ("profile", Test_profile.suite); ("service", Test_service.suite); ("store", Test_store.suite) ]
