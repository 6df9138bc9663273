let () =
  Alcotest.run "perple"
    (Test_util.suite @ Test_litmus.suite @ Test_memmodel.suite
   @ Test_sim.suite @ Test_harness.suite @ Test_supervisor.suite
   @ Test_convert.suite
   @ Test_counting.suite @ Test_pool.suite @ Test_codegen.suite
   @ Test_report.suite
   @ Test_generate.suite @ Test_soundness.suite @ Test_observe.suite
   @ Test_persistency.suite @ Test_journal.suite @ Test_service.suite
   @ Test_coordinator.suite @ Test_link.suite @ Test_cli.suite @ Test_compat.suite
   @ Test_misc.suite)
