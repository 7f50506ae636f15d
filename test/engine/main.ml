let () =
  Alcotest.run "proxjoin.engine"
    [
      ("idf", Test_idf.suite);
      ("searcher", Test_searcher.suite);
      ("accept", Test_accept.suite);
      ("search_oracle", Test_search_oracle.suite);
      ("shard_oracle", Test_shard_oracle.suite);
      ("cascade", Test_cascade.suite);
      ("daat_oracle", Test_daat_oracle.suite);
      ("blockmax_oracle", Test_blockmax_oracle.suite);
      ("snippet", Test_snippet.suite);
      ("answers_golden", Test_answers_golden.suite);
    ]
