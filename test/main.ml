let () =
  Alcotest.run "vmat"
    (Test_util.suites @ Test_storage.suites @ Test_index.suites @ Test_relalg.suites
    @ Test_hypo.suites @ Test_view.suites @ Test_nway.suites @ Test_strategies.suites
    @ Test_bilateral.suites @ Test_cost.suites @ Test_workload.suites
    @ Test_extensions.suites @ Test_adaptive.suites @ Test_lang.suites @ Test_db.suites
    @ Test_stress.suites @ Test_obs.suites @ Test_ctx.suites @ Test_integration.suites
    @ Test_sanitize.suites @ Test_analysis.suites @ Test_wal.suites @ Test_serve.suites
    @ Test_flight.suites @ Test_flat.suites @ Test_fleet.suites @ Test_ledger.suites)
