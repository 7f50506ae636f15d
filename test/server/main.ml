let () =
  Alcotest.run "proxjoin.server"
    [
      ("protocol", Test_protocol.suite);
      ("work_queue", Test_work_queue.suite);
      ("worker_pool", Test_worker_pool.suite);
      ("result_cache", Test_result_cache.suite);
      ("e2e", Test_e2e.suite);
      ("binary_conn", Test_binary_conn.suite);
    ]
