let () =
  Alcotest.run "proxjoin.util"
    [
      ("prng", Test_prng.suite);
      ("dist", Test_dist.suite);
      ("stats", Test_stats.suite);
      ("vec", Test_vec.suite);
      ("heap", Test_heap.suite);
      ("lru", Test_lru.suite);
      ("histogram", Test_histogram.suite);
      ("subset", Test_subset.suite);
      ("timing", Test_timing.suite);
      ("parallel", Test_parallel.suite);
      ("failpoint", Test_failpoint.suite);
      ("bytecodec", Test_bytecodec.suite);
    ]
