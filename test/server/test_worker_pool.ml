open Pj_server

(* Supervision tests drive the pool through a stub search function, so
   a "panic" is raised exactly when the test says so — no global
   failpoint state, no index needed. *)

let query =
  match
    Pj_matching.Query_parser.parse
      (Pj_ontology.Mini_wordnet.create ())
      [ "exact:lenovo" ]
  with
  | Ok q -> q
  | Error msg -> failwith msg

let scoring =
  match Protocol.scoring_of ~family:"win" ~alpha:0.1 with
  | Ok s -> s
  | Error msg -> failwith msg

let far_deadline () = Pj_util.Timing.monotonic_now () +. 60.

let run pool = Worker_pool.run pool ~scoring ~k:5 ~deadline:(far_deadline ()) query

let wait_until ?(timeout = 5.) pred =
  let deadline = Pj_util.Timing.monotonic_now () +. timeout in
  let rec go () =
    if pred () then true
    else if Pj_util.Timing.monotonic_now () > deadline then false
    else begin
      Thread.delay 0.005;
      go ()
    end
  in
  go ()

let test_panic_respawns_worker () =
  let panicking = Atomic.make false in
  let search ~scoring:_ ~k:_ ~deadline:_ _query =
    if Atomic.get panicking then raise (Pj_util.Failpoint.Panicked "test.stub")
    else Ok ([], [])
  in
  let pool = Worker_pool.create ~domains:2 ~queue_capacity:8 search in
  Fun.protect
    ~finally:(fun () -> Worker_pool.shutdown pool)
    (fun () ->
      Alcotest.(check int) "full strength" 2 (Worker_pool.live pool);
      Atomic.set panicking true;
      (* The submitter must get an answer, not hang on the dead domain. *)
      (match run pool with
      | `Done (Worker_pool.Failed msg) ->
          Alcotest.(check bool) "failure names the panic" true
            (String.length msg >= 6 && String.sub msg 0 6 = "worker")
      | `Done _ | `Busy -> Alcotest.fail "expected a Failed outcome");
      Atomic.set panicking false;
      (* One respawn cycle restores full strength... *)
      Alcotest.(check bool) "respawned within one cycle" true
        (wait_until (fun () ->
             Worker_pool.respawns pool = 1 && Worker_pool.live pool = 2));
      Alcotest.(check int) "one panic counted" 1 (Worker_pool.panics pool);
      (* ... and the pool serves normally again. *)
      for _ = 1 to 8 do
        match run pool with
        | `Done (Worker_pool.Hits []) -> ()
        | `Done _ | `Busy -> Alcotest.fail "expected Hits [] after respawn"
      done)

let test_repeated_panics_keep_pool_alive () =
  let panicking = Atomic.make true in
  let search ~scoring:_ ~k:_ ~deadline:_ _query =
    if Atomic.get panicking then raise (Pj_util.Failpoint.Panicked "test.stub")
    else Ok ([], [])
  in
  let pool = Worker_pool.create ~domains:2 ~queue_capacity:8 search in
  Fun.protect
    ~finally:(fun () -> Worker_pool.shutdown pool)
    (fun () ->
      let kills = 6 in
      for i = 1 to kills do
        match run pool with
        | `Done (Worker_pool.Failed _) -> ()
        | `Done _ | `Busy -> Alcotest.failf "kill %d: expected Failed" i
      done;
      Atomic.set panicking false;
      Alcotest.(check bool) "all kills respawned" true
        (wait_until (fun () ->
             Worker_pool.respawns pool = kills && Worker_pool.live pool = 2));
      Alcotest.(check int) "every panic counted" kills (Worker_pool.panics pool);
      match run pool with
      | `Done (Worker_pool.Hits []) -> ()
      | `Done _ | `Busy -> Alcotest.fail "pool dead after repeated panics")

let test_shutdown_respawns_for_queued_jobs () =
  (* The nastiest corner: a single-domain pool whose only worker
     panics while another job is already queued, with [shutdown]
     racing both. The queued job's submitter is blocked on its result
     cell; the supervisor must respawn (even though we are stopping)
     so that job is answered — then retire the pool. *)
  let gate = Atomic.make false in
  let first = Atomic.make true in
  let search ~scoring:_ ~k:_ ~deadline:_ _query =
    if Atomic.compare_and_set first true false then begin
      (* First job: hold the worker until both the second job is
         queued and shutdown has begun, then crash. *)
      while not (Atomic.get gate) do
        Thread.yield ()
      done;
      Thread.delay 0.02;
      raise (Pj_util.Failpoint.Panicked "test.stub")
    end
    else Ok ([], [])
  in
  let pool = Worker_pool.create ~domains:1 ~queue_capacity:8 search in
  let outcome1 = ref `Busy and outcome2 = ref `Busy in
  let t1 = Thread.create (fun () -> outcome1 := run pool) () in
  let t2 =
    Thread.create
      (fun () ->
        (* Queue behind the held job. *)
        Thread.delay 0.05;
        outcome2 := run pool)
      ()
  in
  Thread.delay 0.15;
  Atomic.set gate true;
  Worker_pool.shutdown pool;
  Thread.join t1;
  Thread.join t2;
  (match !outcome1 with
  | `Done (Worker_pool.Failed _) -> ()
  | `Done _ | `Busy -> Alcotest.fail "held job should report the panic");
  (match !outcome2 with
  | `Done (Worker_pool.Hits []) -> ()
  | `Done _ | `Busy ->
      Alcotest.fail "queued job must be served by the shutdown respawn");
  Alcotest.(check int) "one panic" 1 (Worker_pool.panics pool);
  Alcotest.(check int) "one respawn" 1 (Worker_pool.respawns pool);
  Alcotest.(check int) "pool fully retired" 0 (Worker_pool.live pool)

let suite =
  [
    ("worker_pool: panic respawns", `Quick, test_panic_respawns_worker);
    ( "worker_pool: repeated panics survived",
      `Quick,
      test_repeated_panics_keep_pool_alive );
    ( "worker_pool: shutdown respawns for queued jobs",
      `Quick,
      test_shutdown_respawns_for_queued_jobs );
  ]
