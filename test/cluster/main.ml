let () =
  Alcotest.run "proxjoin cluster"
    [
      ("frame", Test_frame.tests);
      ("cluster_e2e", Test_cluster_e2e.suite);
      ("cluster_proc", Test_cluster_proc.suite);
      ("stats_keys", Test_stats_keys.suite);
      ("layout_serve", Test_layout_serve.suite);
      ("flags_cli", Test_flags_cli.suite);
    ]
