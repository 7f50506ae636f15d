let () =
  Alcotest.run "proxjoin.index"
    [
      ("posting", Test_posting.suite);
      ("corpus", Test_corpus.suite);
      ("cursor", Test_cursor.suite);
      ("inverted_index", Test_inverted_index.suite);
      ("build_oracle", Test_build_oracle.suite);
      ("sharded_index", Test_sharded_index.suite);
    ]
