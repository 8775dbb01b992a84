let () =
  Alcotest.run "bolt"
    [
      ("perf", T_perf.suite);
      ("solver", T_solver.suite);
      ("net", T_net.suite);
      ("hw", T_hw.suite);
      ("ir", T_ir.suite);
      ("exec", T_exec.suite);
      ("specialize", T_specialize.suite);
      ("pool", T_pool.suite);
      ("dslib", T_dslib.suite);
      ("symbex", T_symbex.suite);
      ("bolt", T_bolt.suite);
      ("distiller", T_distiller.suite);
      ("experiments", T_experiments.suite);
      ("extensions", T_extensions.suite);
      ("workload", T_workload.suite);
      ("soundness", T_soundness.suite);
      ("tools", T_tools.suite);
      ("obs", T_obs.suite);
      ("nf", T_nf.suite);
      ("proptest", T_proptest.suite);
      ("tuner", T_tuner.suite);
      ("topo", T_topo.suite);
      ("dataplane", T_dataplane.suite);
    ]
