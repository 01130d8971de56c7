let () =
  Alcotest.run "masstree"
    [
      ("xutil", Test_xutil.suite);
      ("obs", Test_obs.suite);
      ("key", Test_key.suite);
      ("keycodec", Test_keycodec.suite);
      ("permutation", Test_permutation.suite);
      ("version", Test_version.suite);
      ("epoch", Test_epoch.suite);
      ("pool", Test_pool.suite);
      ("masstree", Test_masstree.suite);
      ("masstree-whitebox", Test_masstree_whitebox.suite);
      ("baselines", Test_baselines.suite);
      ("workload", Test_workload.suite);
      ("persist", Test_persist.suite);
      ("kvstore", Test_kvstore.suite);
      ("packed", Test_packed.suite);
      ("crash", Test_crash.suite);
      ("kvserver", Test_kvserver.suite);
      ("netserver", Test_netserver.suite);
      ("memsim", Test_memsim.suite);
      ("sysmodels", Test_sysmodels.suite);
      ("scan", Test_scan.suite);
      ("masstree-prop", Test_masstree_prop.suite);
      ("recovery-prop", Test_recovery_prop.suite);
      ("scan-concurrent", Test_scan_concurrent.suite);
      ("concurrent", Test_concurrent.suite);
    ]
