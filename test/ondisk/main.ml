let () =
  Alcotest.run "proxjoin.ondisk"
    [
      ("codec", Test_codec.suite);
      ("compact_cli", Test_compact_cli.suite);
      ("mapped", Test_mapped.suite);
      ("merge_splice", Test_merge_splice.suite);
      ("segment", Test_segment.suite);
      ("writer_golden", Test_writer_golden.suite);
    ]
