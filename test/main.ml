(* Test runner: every suite in one alcotest binary. *)

let () =
  Alcotest.run "hurricane"
    [
      ("pqueue", Test_pqueue.suite);
      ("engine", Test_engine.suite);
      ("process", Test_process.suite);
      ("alloc", Test_alloc.suite);
      ("resource", Test_resource.suite);
      ("stat", Test_stat.suite);
      ("rng", Test_rng.suite);
      ("ivar", Test_ivar.suite);
      ("config", Test_config.suite);
      ("machine", Test_machine.suite);
      ("ctx", Test_ctx.suite);
      ("locks", Test_locks.suite);
      ("mcs", Test_mcs.suite);
      ("clustering", Test_clustering.suite);
      ("khash", Test_khash.suite);
      ("rpc", Test_rpc.suite);
      ("fault", Test_fault.suite);
      ("memmgr", Test_memmgr.suite);
      ("procs", Test_procs.suite);
      ("workloads", Test_workloads.suite);
      ("experiments", Test_experiments.suite);
      ("extensions", Test_extensions.suite);
      ("lock_family", Test_lock_family.suite);
      ("numa_locks", Test_numa_locks.suite);
      ("abort", Test_abort.suite);
      ("crash", Test_crash.suite);
      ("cow", Test_cow.suite);
      ("report", Test_report.suite);
      ("fserver", Test_fserver.suite);
      ("kernel", Test_kernel.suite);
      ("integration", Test_integration.suite);
      ("verify", Test_verify.suite);
      ("obs", Test_obs.suite);
      ("hook_stream", Test_hook_stream.suite);
      ("rw", Test_rw.suite);
      ("par", Test_par.suite);
      ("slo", Test_slo.suite);
    ]
