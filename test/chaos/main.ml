(* Chaos suite: randomized failpoint schedules against a live socket
   server. The properties under test are the serving contract of the
   degradation work, not any particular scheduling of faults:

   - never hang: every request gets a response line (or a clean
     disconnect) within a bounded time, whatever is armed;
   - never crash: the server survives injected errors, delays and
     worker panics, and keeps accepting connections;
   - honesty: responses are only ever HITS / OK-DEGRADED / TIMEOUT /
     BUSY / ERR, and once the faults are cleared, every query answers
     byte-identically to the fault-free run — which also proves no
     degraded or timed-out response was ever cached, and that panicked
     worker domains were respawned to full strength.

   The schedule PRNG is seeded from $CHAOS_SEED when set (the CI chaos
   job passes a fresh one per run and logs it), else a fixed default —
   so any failure is reproducible by exporting the printed seed. *)

open Pj_server

let seed =
  match Sys.getenv_opt "CHAOS_SEED" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n -> n
      | None -> failwith (Printf.sprintf "bad $CHAOS_SEED %S" s))
  | None -> 20260805

let () = Printf.printf "[chaos] seed = %d (export CHAOS_SEED to vary)\n%!" seed

(* --- the served corpus: same build as `proxjoin serve` ------------- *)

let texts =
  [
    "lenovo signs a partnership with the nba this season";
    "the nba expanded its partnership program with dell";
    "unrelated document about gardening and weather";
    "lenovo mentioned briefly and much later a partnership of others";
    "dell and lenovo compete for the nba partnership deal";
    "nba nba nba partnership partnership lenovo at the end";
    "a partnership between gardeners and the weather service";
    "lenovo dell nba partnership all adjacent here";
    "the weather service mentioned the nba in passing yesterday";
    "dell partnership rumors dominate the gardening forum somehow";
  ]

let build () =
  let corpus = Pj_index.Corpus.create () in
  List.iter
    (fun text ->
      let stems =
        Array.map Pj_text.Porter.stem (Pj_text.Tokenizer.tokenize_array text)
      in
      ignore (Pj_index.Corpus.add_tokens corpus stems))
    texts;
  (corpus, Pj_ontology.Mini_wordnet.create ())

let n_shards = 3

let with_server ?(config = Server.default_config) f =
  Pj_util.Failpoint.clear ();
  let corpus, graph = build () in
  let sharded =
    Pj_engine.Shard_searcher.create
      (Pj_index.Sharded_index.build ~shards:n_shards corpus)
  in
  let server =
    Server.start ~config ~graph (Worker_pool.of_shard_searcher sharded)
  in
  Fun.protect
    ~finally:(fun () ->
      Pj_util.Failpoint.clear ();
      Server.stop server)
    (fun () -> f server)

let queries =
  [
    "SEARCH win 0.2 5 exact:lenovo exact:nba exact:partnership";
    "SEARCH med 0.1 3 exact:lenovo exact:partnership";
    "SEARCH max 0.1 10 exact:dell exact:nba";
    "SEARCH win 0.5 2 exact:partnership exact:weather";
    "SEARCH win 0.2 5 stem:gardening";
    "SEARCH med 0.3 4 exact:nba exact:partnership";
  ]

(* --- a client that can prove it never hung ------------------------- *)

let hang_timeout_s = 10.

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (* A read that sits longer than this is the hang the suite exists to
     catch; it surfaces as an error after [hang_timeout_s], below. *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO hang_timeout_s;
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* One request/response; [`Gone] is a clean teardown (the server.conn
   failpoint or a force-close kills connections mid-request, which is
   within contract), [`Hung] is the contract violation. *)
let request conn line =
  let t0 = Pj_util.Timing.monotonic_now () in
  match
    output_string conn.oc line;
    output_char conn.oc '\n';
    flush conn.oc;
    input_line conn.ic
  with
  | response -> `Response response
  | exception (End_of_file | Sys_error _) ->
      if Pj_util.Timing.monotonic_now () -. t0 >= hang_timeout_s -. 0.5 then
        `Hung
      else `Gone

let expect_response conn line =
  match request conn line with
  | `Response r -> r
  | `Hung -> Alcotest.failf "hung on %S" line
  | `Gone -> Alcotest.failf "connection dropped on %S" line

let valid_response r =
  List.exists
    (fun p -> String.length r >= String.length p && String.sub r 0 (String.length p) = p)
    [ "HITS "; "OK-DEGRADED "; "TIMEOUT"; "BUSY"; "ERR "; "PONG" ]

(* Fault-free expected lines, captured over the wire before any rule is
   armed — the recovery oracle. *)
let baseline server =
  let conn = connect (Server.port server) in
  Fun.protect
    ~finally:(fun () -> close conn)
    (fun () -> List.map (fun q -> (q, expect_response conn q)) queries)

(* --- 1. randomized schedules ---------------------------------------- *)

let random_schedule rng =
  let open Pj_util.Failpoint in
  let candidates =
    [
      (fun () ->
        { site = Printf.sprintf "shard.%d" (Pj_util.Prng.int rng n_shards);
          action = Fail; prob = 1. });
      (fun () ->
        { site = Printf.sprintf "shard.%d" (Pj_util.Prng.int rng n_shards);
          action = Delay (0.005 +. Pj_util.Prng.float rng 0.03); prob = 1. });
      (fun () -> { site = "worker.job"; action = Fail; prob = 0.3 });
      (fun () -> { site = "worker.job"; action = Panic; prob = 0.15 });
      (fun () -> { site = "server.conn"; action = Fail; prob = 0.1 });
    ]
  in
  let n_rules = 1 + Pj_util.Prng.int rng 3 in
  List.init n_rules (fun _ ->
      (List.nth candidates (Pj_util.Prng.int rng (List.length candidates))) ())

let test_randomized_schedules () =
  with_server (fun server ->
      let expected = baseline server in
      let port = Server.port server in
      let rng = Pj_util.Prng.create seed in
      let violations = ref [] in
      let violations_mutex = Mutex.create () in
      let violation fmt =
        Printf.ksprintf
          (fun msg ->
            Mutex.lock violations_mutex;
            violations := msg :: !violations;
            Mutex.unlock violations_mutex)
          fmt
      in
      let rounds = 6 and clients = 3 and per_client = 12 in
      for round = 0 to rounds - 1 do
        let rules = random_schedule rng in
        Pj_util.Failpoint.configure ~seed:(seed + (1000 * round)) rules;
        let client id =
          let conn = ref (connect port) in
          for i = 0 to per_client - 1 do
            let q = List.nth queries ((id + i + round) mod List.length queries) in
            match request !conn q with
            | `Response r ->
                if not (valid_response r) then
                  violation "round %d: invalid response %S to %S" round r q
            | `Gone ->
                (* Within contract: reconnect and continue. *)
                close !conn;
                conn := connect port
            | `Hung -> violation "round %d: hang on %S" round q
          done;
          close !conn
        in
        let threads = List.init clients (fun id -> Thread.create client id) in
        List.iter Thread.join threads
      done;
      (* Recovery: with everything cleared, the server must answer every
         query byte-identically to the fault-free run — proving no
         degraded/timed-out response was cached and the worker pool is
         back at full strength. *)
      Pj_util.Failpoint.clear ();
      let conn = connect port in
      Fun.protect
        ~finally:(fun () -> close conn)
        (fun () ->
          Alcotest.(check string) "liveness after chaos" "PONG"
            (expect_response conn "PING");
          List.iter
            (fun (q, want) ->
              Alcotest.(check string)
                (Printf.sprintf "post-chaos %S" q)
                want (expect_response conn q))
            expected);
      match !violations with
      | [] -> ()
      | v :: _ ->
          Alcotest.failf "%d contract violations, e.g. %s (seed %d)"
            (List.length !violations) v seed)

(* --- 2. degraded responses: flagged, honest, never cached ----------- *)

let test_degraded_flagged_and_uncached () =
  with_server (fun server ->
      let expected = baseline server in
      (* From here the cache holds complete answers; killing a shard
         must bypass them... so drop them first to force live searches. *)
      Result_cache.clear (Server.cache server);
      Pj_util.Failpoint.arm "shard.1" Pj_util.Failpoint.Fail;
      let conn = connect (Server.port server) in
      Fun.protect
        ~finally:(fun () -> close conn)
        (fun () ->
          List.iter
            (fun (q, _) ->
              let r = expect_response conn q in
              Alcotest.(check bool)
                (Printf.sprintf "degraded and names shard 1: %S" r)
                true
                (String.length r >= 20
                && String.sub r 0 20 = "OK-DEGRADED shards=1"))
            expected;
          let _, _, len = Result_cache.stats (Server.cache server) in
          Alcotest.(check int) "no degraded response cached" 0 len;
          (* Heal the shard: the same queries answer complete again —
             and would not, had the degraded lines been cached. *)
          Pj_util.Failpoint.clear ();
          List.iter
            (fun (q, want) ->
              Alcotest.(check string)
                (Printf.sprintf "healed %S" q)
                want (expect_response conn q))
            expected;
          let stats = expect_response conn "STATS" in
          Alcotest.(check (option int))
            "every degraded response counted"
            (Some (List.length expected))
            (Metrics.int_field stats "degraded");
          Alcotest.(check (option int))
            "one failed leg each"
            (Some (List.length expected))
            (Metrics.int_field stats "shard_failures")))

(* --- 3. worker kill: detected, counted, respawned ------------------- *)

let test_worker_kill_respawns () =
  with_server (fun server ->
      let expected = baseline server in
      Result_cache.clear (Server.cache server);
      Pj_util.Failpoint.arm "worker.job" Pj_util.Failpoint.Panic;
      let conn = connect (Server.port server) in
      Fun.protect
        ~finally:(fun () -> close conn)
        (fun () ->
          (let r = expect_response conn (fst (List.hd expected)) in
           Alcotest.(check bool)
             (Printf.sprintf "panic surfaced as ERR: %S" r)
             true
             (String.length r >= 10 && String.sub r 0 10 = "ERR worker"));
          Pj_util.Failpoint.clear ();
          (* Full strength within one respawn cycle: the killed domain
             is joined and replaced, then every query serves again. *)
          let deadline = Pj_util.Timing.monotonic_now () +. 5. in
          let respawned () =
            match Metrics.int_field (Server.stats_line server) "worker_respawns" with
            | Some n -> n >= 1
            | None -> false
          in
          while (not (respawned ())) && Pj_util.Timing.monotonic_now () < deadline do
            Thread.delay 0.01
          done;
          Alcotest.(check bool) "respawn counted" true (respawned ());
          Alcotest.(check (option int))
            "panic counted" (Some 1)
            (Metrics.int_field (Server.stats_line server) "worker_panics");
          List.iter
            (fun (q, want) ->
              Alcotest.(check string)
                (Printf.sprintf "post-respawn %S" q)
                want (expect_response conn q))
            expected))

(* --- 4. graceful drain: stop under load flushes in-flight ----------- *)

let test_drain_under_load () =
  let config = { Server.default_config with drain_s = 5. } in
  with_server ~config (fun server ->
      let expected = baseline server in
      Result_cache.clear (Server.cache server);
      (* The handler for [baseline]'s last query decrements the
         in-flight count *after* flushing its response, so it can still
         be >0 here; wait it down to zero so the poll below can only be
         satisfied by the new client's request. *)
      let settle = Pj_util.Timing.monotonic_now () +. 2. in
      while Server.inflight server > 0 && Pj_util.Timing.monotonic_now () < settle
      do
        Thread.delay 0.002
      done;
      Alcotest.(check int) "baseline requests retired" 0 (Server.inflight server);
      (* Every shard leg sleeps, so the request is reliably in flight
         when stop begins; the drain must still flush its response. *)
      Pj_util.Failpoint.arm "shard.*" (Pj_util.Failpoint.Delay 0.2);
      let q, want = List.hd expected in
      let got = ref `Hung in
      let client =
        Thread.create
          (fun () ->
            let conn = connect (Server.port server) in
            Fun.protect
              ~finally:(fun () -> close conn)
              (fun () -> got := request conn q))
          ()
      in
      (* Let the request get read off the socket, then stop mid-flight. *)
      let deadline = Pj_util.Timing.monotonic_now () +. 2. in
      while Server.inflight server = 0 && Pj_util.Timing.monotonic_now () < deadline
      do
        Thread.delay 0.005
      done;
      Alcotest.(check bool) "request is in flight" true (Server.inflight server > 0);
      Server.stop server;
      Thread.join client;
      match !got with
      | `Response r -> Alcotest.(check string) "drained response" want r
      | `Gone -> Alcotest.fail "in-flight request lost by stop"
      | `Hung -> Alcotest.fail "in-flight request hung through stop")

(* --- 5. live index: every live.* failpoint fails cleanly, recovery
       replays exactly the last durable generation --------------------- *)

let stems text =
  Array.map Pj_text.Porter.stem (Pj_text.Tokenizer.tokenize_array text)

let live_scoring = Pj_core.Scoring.Win (Pj_core.Scoring.win_exponential ~alpha:0.2)

let live_query =
  let table word weight = [ (Pj_text.Porter.stem word, weight) ] in
  Pj_matching.Query.make "chaos-live"
    [
      Pj_matching.Matcher.of_table ~name:"t1" (table "lenovo" 1.0);
      Pj_matching.Matcher.of_table ~name:"t2" (table "nba" 1.0);
      Pj_matching.Matcher.of_table ~name:"t3" (table "partnership" 0.8);
    ]

let live_hits live = Pj_live.Live_index.search ~k:10 live live_scoring live_query

let live_config =
  {
    Pj_live.Live_index.default_config with
    memtable_capacity = 2;
    merge_threshold = 2;
    background_merge = false;
  }

let fresh_live_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pj-chaos-live-%d-%d" (Unix.getpid ()) !counter)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

let expect_injected site f =
  match f () with
  | _ -> Alcotest.failf "%s: operation succeeded with failpoint armed" site
  | exception Pj_util.Failpoint.Injected s ->
      Alcotest.(check string)
        (Printf.sprintf "%s: failure names the site" site)
        site s

let test_live_failpoints_recover () =
  let strong = stems "lenovo nba partnership lenovo nba partnership" in
  let provocations =
    [
      (* A failed memtable seal: the segment file never lands. *)
      ( "live.flush",
        fun live ->
          ignore (Pj_live.Live_index.add live strong);
          ignore (Pj_live.Live_index.flush live) );
      (* The segment lands but the manifest write dies: the orphan
         segment must be invisible (and cleaned up) on recovery. *)
      ( "live.manifest",
        fun live ->
          ignore (Pj_live.Live_index.add live strong);
          ignore (Pj_live.Live_index.flush live) );
      (* A failed compaction: the pre-merge snapshot stays published. *)
      ("live.merge", fun live -> ignore (Pj_live.Live_index.merge_now live));
    ]
  in
  List.iter
    (fun (site, provoke) ->
      Pj_util.Failpoint.clear ();
      let dir = fresh_live_dir () in
      Fun.protect
        ~finally:(fun () ->
          Pj_util.Failpoint.clear ();
          rm_rf dir)
        (fun () ->
          (* Ten documents, auto-flushed in pairs: five durable
             segments, an empty memtable, more segments than the merge
             policy tolerates. *)
          let live = Pj_live.Live_index.open_dir ~config:live_config dir in
          List.iter
            (fun text -> ignore (Pj_live.Live_index.add live (stems text)))
            texts;
          ignore (Pj_live.Live_index.flush live);
          let durable = live_hits live in
          Alcotest.(check bool)
            (Printf.sprintf "%s: baseline finds documents" site)
            true
            (durable <> []);
          Pj_util.Failpoint.arm site Pj_util.Failpoint.Fail;
          expect_injected site (fun () -> provoke live);
          (* The in-memory index survives the failure and keeps
             serving a coherent snapshot. *)
          let after_failure = live_hits live in
          Alcotest.(check bool)
            (Printf.sprintf "%s: still serves after failure" site)
            true
            (after_failure <> []);
          if site <> "live.merge" then
            (* The provoked add is visible in memory even though its
               flush died — readers never see a torn state. *)
            Alcotest.(check bool)
              (Printf.sprintf "%s: unflushed add visible in memory" site)
              true
              (after_failure <> durable);
          Pj_util.Failpoint.clear ();
          (* Crash: abandon the instance without flushing. Recovery
             must replay exactly the last durable generation — the
             unflushed add is gone, the failed merge left no trace. *)
          Pj_live.Live_index.close live;
          let recovered = Pj_live.Live_index.open_dir ~config:live_config dir in
          Fun.protect
            ~finally:(fun () -> Pj_live.Live_index.close recovered)
            (fun () ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: recovery = last durable generation" site)
                true
                (live_hits recovered = durable);
              let stats = Pj_live.Live_index.stats recovered in
              Alcotest.(check int)
                (Printf.sprintf "%s: all durable docs recovered" site)
                (List.length texts) stats.Pj_live.Live_index.docs;
              (* The site is healed: the same operation now succeeds
                 and becomes durable in turn. *)
              ignore (Pj_live.Live_index.add recovered strong);
              ignore (Pj_live.Live_index.flush recovered);
              ignore (Pj_live.Live_index.merge_now recovered);
              Alcotest.(check bool)
                (Printf.sprintf "%s: healed index ingests again" site)
                true
                (live_hits recovered <> durable))))
    provocations

(* --- 6. write-ahead log: crash at every WAL kill point, acknowledged
       writes always recover, unacknowledged ones never tear ---------- *)

let wal_live_config = { live_config with Pj_live.Live_index.wal = true }

let test_live_wal_failpoints_recover () =
  let strong = stems "lenovo nba partnership lenovo nba partnership" in
  (* [`Unacked]: the armed site makes the add itself fail — the doc was
     never acknowledged, so recovery must not contain it. [`Acked]: the
     add is acknowledged first and the armed site kills the *flush*
     mid-publication — the doc must survive recovery regardless of
     where the flush died (WAL replay or the manifest that landed). *)
  let sites =
    [
      ("live.wal.append", `Unacked);
      ("live.wal.fsync", `Unacked);
      ("live.wal.rotate", `Acked);
      ("live.flush", `Acked);
      ("live.manifest", `Acked);
    ]
  in
  List.iter
    (fun (site, mode) ->
      Pj_util.Failpoint.clear ();
      let dir = fresh_live_dir () in
      Fun.protect
        ~finally:(fun () ->
          Pj_util.Failpoint.clear ();
          rm_rf dir)
        (fun () ->
          let live = Pj_live.Live_index.open_dir ~config:wal_live_config dir in
          (* Eight acknowledged docs, auto-flushed in pairs: the log
             rotates at every seal along the way. *)
          List.iter
            (fun text -> ignore (Pj_live.Live_index.add live (stems text)))
            texts;
          let want, expected_docs =
            match mode with
            | `Unacked ->
                let want = live_hits live in
                Pj_util.Failpoint.arm site Pj_util.Failpoint.Fail;
                expect_injected site (fun () ->
                    ignore (Pj_live.Live_index.add live strong));
                (want, List.length texts)
            | `Acked ->
                (* Acknowledged but unflushed: durable only via the
                   log — until the flush below tries to seal it and
                   dies at [site]. *)
                ignore (Pj_live.Live_index.add live strong);
                let want = live_hits live in
                Pj_util.Failpoint.arm site Pj_util.Failpoint.Fail;
                expect_injected site (fun () ->
                    ignore (Pj_live.Live_index.flush live));
                (want, List.length texts + 1)
          in
          Pj_util.Failpoint.clear ();
          (* Crash: abandon the handle — no close, no final fsync.
             Everything acknowledged is already on disk. *)
          let recovered =
            Pj_live.Live_index.open_dir ~config:wal_live_config dir
          in
          Fun.protect
            ~finally:(fun () -> Pj_live.Live_index.close recovered)
            (fun () ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: acknowledged state recovered" site)
                true
                (live_hits recovered = want);
              let stats = Pj_live.Live_index.stats recovered in
              Alcotest.(check int)
                (Printf.sprintf "%s: exactly the acknowledged docs" site)
                expected_docs stats.Pj_live.Live_index.docs;
              Alcotest.(check int)
                (Printf.sprintf "%s: recovered state is durable" site)
                0 stats.Pj_live.Live_index.durable_lag;
              (* Healed: the same site now works and the write sticks
                 across one more crash. *)
              ignore (Pj_live.Live_index.add recovered strong);
              let richer = live_hits recovered in
              Alcotest.(check bool)
                (Printf.sprintf "%s: healed index ingests again" site)
                true (richer <> want);
              let again =
                Pj_live.Live_index.open_dir ~config:wal_live_config dir
              in
              Fun.protect
                ~finally:(fun () -> Pj_live.Live_index.close again)
                (fun () ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: post-heal write survives a crash"
                       site)
                    true
                    (live_hits again = richer)))))
    sites

let () =
  Alcotest.run "proxjoin.chaos"
    [
      ( "chaos",
        [
          ("chaos: randomized schedules", `Quick, test_randomized_schedules);
          ( "chaos: degraded flagged, never cached",
            `Quick,
            test_degraded_flagged_and_uncached );
          ("chaos: worker kill respawns", `Quick, test_worker_kill_respawns);
          ("chaos: drain under load", `Quick, test_drain_under_load);
          ( "chaos: live failpoints recover",
            `Quick,
            test_live_failpoints_recover );
          ( "chaos: wal kill points recover acknowledged writes",
            `Quick,
            test_live_wal_failpoints_recover );
        ] );
    ]
