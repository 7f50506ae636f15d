open Pj_server

(* A small but non-trivial corpus, indexed over Porter stems exactly the
   way `proxjoin serve` builds it. *)
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
  let index = Pj_index.Inverted_index.build corpus in
  (corpus, Pj_engine.Searcher.create index, Pj_ontology.Mini_wordnet.create ())

(* What the server must answer for a SEARCH line: the same parse +
   stem + search pipeline, rendered by the same formatter. *)
let expected_response ?precision searcher graph ~family ~alpha ~k terms =
  match Pj_matching.Query_parser.parse graph terms with
  | Error msg -> Protocol.err msg
  | Ok query ->
      let query =
        {
          query with
          Pj_matching.Query.matchers =
            Array.map Pj_matching.Matcher.stem_expansions
              query.Pj_matching.Query.matchers;
        }
      in
      let scoring =
        match Protocol.scoring_of ~family ~alpha with
        | Ok s -> s
        | Error msg -> failwith msg
      in
      Protocol.string_of_hits ?precision
        (Pj_engine.Searcher.search ~k searcher scoring query)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let request conn line =
  output_string conn.oc line;
  output_char conn.oc '\n';
  flush conn.oc;
  input_line conn.ic

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

let with_server ?config f =
  let _, searcher, graph = build () in
  let server = Server.start ?config ~graph (Worker_pool.of_searcher searcher) in
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server searcher graph)

let queries =
  [
    ("win", 0.2, 5, [ "exact:lenovo"; "exact:nba"; "exact:partnership" ]);
    ("med", 0.1, 3, [ "exact:lenovo"; "exact:partnership" ]);
    ("max", 0.1, 10, [ "exact:dell"; "exact:nba" ]);
    ("win", 0.5, 2, [ "exact:partnership"; "exact:weather" ]);
    ("win", 0.2, 5, [ "stem:gardening" ]);
    ("med", 0.3, 4, [ "exact:nba"; "exact:partnership" ]);
  ]

let search_line (family, alpha, k, terms) =
  Printf.sprintf "SEARCH %s %g %d %s" family alpha k (String.concat " " terms)

let test_concurrent_clients_match_direct () =
  with_server (fun server searcher graph ->
      let port = Server.port server in
      let expected =
        List.map
          (fun (family, alpha, k, terms) ->
            expected_response searcher graph ~family ~alpha ~k terms)
          queries
      in
      let n_clients = 8 and rounds = 3 in
      let failures = ref [] in
      let failures_mutex = Mutex.create () in
      let client id =
        let conn = connect port in
        Fun.protect
          ~finally:(fun () -> close conn)
          (fun () ->
            for round = 1 to rounds do
              (* Stagger the query order per client so the cache sees
                 both cold and warm lookups concurrently. *)
              let rotated =
                let n = List.length queries in
                List.init n (fun i ->
                    let j = (i + id + round) mod n in
                    (List.nth queries j, List.nth expected j))
              in
              List.iter
                (fun (q, want) ->
                  let got = request conn (search_line q) in
                  if got <> want then begin
                    Mutex.lock failures_mutex;
                    failures :=
                      Printf.sprintf "client %d: %s -> %s (want %s)" id
                        (search_line q) got want
                      :: !failures;
                    Mutex.unlock failures_mutex
                  end)
                rotated;
              Alcotest.(check string) "interleaved ping" "PONG"
                (request conn "PING")
            done;
            Alcotest.(check string) "quit" "BYE" (request conn "QUIT"))
      in
      let threads = List.init n_clients (fun id -> Thread.create client id) in
      List.iter Thread.join threads;
      (match !failures with
      | [] -> ()
      | f :: _ ->
          Alcotest.failf "%d mismatches, e.g. %s" (List.length !failures) f);
      (* Each distinct query misses at least once; concurrent clients may
         race between find and add, so a key can miss more than once — but
         every lookup is accounted for, and the cache ends up holding
         exactly the distinct keys. *)
      let hits, misses, len = Result_cache.stats (Server.cache server) in
      Alcotest.(check bool) "each distinct query missed at least once" true
        (misses >= List.length queries);
      Alcotest.(check int) "every lookup is a hit or a miss"
        (n_clients * rounds * List.length queries)
        (hits + misses);
      Alcotest.(check int) "cache holds exactly the distinct keys"
        (List.length queries) len)

let test_repeated_query_served_from_cache () =
  with_server (fun server _ _ ->
      let conn = connect (Server.port server) in
      Fun.protect
        ~finally:(fun () -> close conn)
        (fun () ->
          let line = search_line (List.hd queries) in
          let first = request conn line in
          let hits0, misses0, _ = Result_cache.stats (Server.cache server) in
          let second = request conn line in
          let hits1, misses1, _ = Result_cache.stats (Server.cache server) in
          Alcotest.(check string) "result unchanged" first second;
          Alcotest.(check int) "hit counter incremented" (hits0 + 1) hits1;
          Alcotest.(check int) "no extra miss" misses0 misses1;
          Alcotest.(check bool) "it is a real result" true
            (String.length first >= 6 && String.sub first 0 5 = "HITS ")))

let test_deadline_timeout () =
  (* A deadline already in the past forces every live search to expire
     before solving; the response must be TIMEOUT, not a hang or a
     dead worker. *)
  let config = { Server.default_config with deadline_s = -1. } in
  with_server ~config (fun server _ _ ->
      let conn = connect (Server.port server) in
      Fun.protect
        ~finally:(fun () -> close conn)
        (fun () ->
          Alcotest.(check string) "times out" "TIMEOUT"
            (request conn (search_line (List.hd queries)));
          (* The worker survives and keeps serving. *)
          Alcotest.(check string) "still alive" "PONG" (request conn "PING");
          Alcotest.(check string) "times out again" "TIMEOUT"
            (request conn (search_line (List.nth queries 1)))))

(* Two terms sharing every location make the duplicate handler's
   branch-and-bound blow up (tens of thousands of solves for one
   document, seconds of work). The deadline must stop that solve and
   free the only worker domain. *)
let test_shared_form_deadline () =
  let corpus = Pj_index.Corpus.create () in
  ignore
    (Pj_index.Corpus.add_tokens corpus
       (Array.init 200 (fun i ->
            if i mod 13 = 5 && i < 13 * 15 then "w" else Printf.sprintf "f%d" i)));
  let search =
    Worker_pool.of_searcher
      (Pj_engine.Searcher.create (Pj_index.Inverted_index.build corpus))
  in
  let config = { Server.default_config with deadline_s = 0.2; domains = 1 } in
  let server =
    Server.start ~config ~graph:(Pj_ontology.Mini_wordnet.create ()) search
  in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let conn = connect (Server.port server) in
      Fun.protect
        ~finally:(fun () -> close conn)
        (fun () ->
          Alcotest.(check string) "times out" "TIMEOUT"
            (request conn "SEARCH win 0.1 10 exact:w exact:w");
          Alcotest.(check string) "worker free again" "PONG"
            (request conn "PING")))

let test_malformed_requests_keep_connection () =
  with_server (fun server searcher graph ->
      let conn = connect (Server.port server) in
      Fun.protect
        ~finally:(fun () -> close conn)
        (fun () ->
          let is_err line =
            String.length line >= 4 && String.sub line 0 4 = "ERR "
          in
          Alcotest.(check bool) "garbage" true (is_err (request conn "GARBAGE IN"));
          Alcotest.(check bool) "bad arity" true (is_err (request conn "SEARCH win"));
          Alcotest.(check bool) "bad family" true
            (is_err (request conn "SEARCH bm25 0.2 5 lenovo"));
          Alcotest.(check bool) "bad alpha" true
            (is_err (request conn "SEARCH win slow 5 lenovo"));
          Alcotest.(check bool) "empty line" true (is_err (request conn ""));
          (* A term the parser rejects (empty disjunct). *)
          Alcotest.(check bool) "bad term" true
            (is_err (request conn "SEARCH win 0.2 5 exact:"));
          (* After all that abuse the connection still serves real
             queries. *)
          let family, alpha, k, terms = List.hd queries in
          Alcotest.(check string) "recovers"
            (expected_response searcher graph ~family ~alpha ~k terms)
            (request conn (search_line (List.hd queries)));
          Alcotest.(check string) "and pings" "PONG" (request conn "PING")))

let test_stats_reports () =
  with_server (fun server _ _ ->
      let conn = connect (Server.port server) in
      Fun.protect
        ~finally:(fun () -> close conn)
        (fun () ->
          ignore (request conn (search_line (List.hd queries)));
          ignore (request conn (search_line (List.hd queries)));
          ignore (request conn "PING");
          let stats = request conn "STATS" in
          let has sub =
            let n = String.length sub in
            let rec go i =
              i + n <= String.length stats
              && (String.sub stats i n = sub || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) "is a stats line" true (has "STATS uptime_s=");
          Alcotest.(check bool) "searches counted" true (has "searches=2");
          Alcotest.(check bool) "cache hit counted" true (has "cache_hits=1");
          Alcotest.(check bool) "pings counted" true (has "pings=1");
          Alcotest.(check bool) "latency percentiles" true (has "p99_ms=")))

let test_overlong_line_fails_connection () =
  (* A line past Protocol.max_line_bytes must cost the server O(cap)
     memory, draw exactly one ERR, and close the connection — while
     other (and future) connections keep working. *)
  with_server (fun server _ _ ->
      let conn = connect (Server.port server) in
      let closed =
        Fun.protect
          ~finally:(fun () -> close conn)
          (fun () ->
            output_string conn.oc (String.make (4 * Protocol.max_line_bytes) 'a');
            output_char conn.oc '\n';
            flush conn.oc;
            Alcotest.(check string) "one diagnostic"
              "ERR request line too long" (input_line conn.ic);
            (* Then the server hangs up: no second response ever comes. *)
            match input_line conn.ic with
            | exception (End_of_file | Sys_error _) -> true
            | _ -> false)
      in
      Alcotest.(check bool) "connection closed after ERR" true closed;
      (* The abuse was per-connection: a fresh client is served. *)
      let conn2 = connect (Server.port server) in
      Fun.protect
        ~finally:(fun () -> close conn2)
        (fun () ->
          Alcotest.(check string) "server still alive" "PONG"
            (request conn2 "PING")))

let test_connection_table_drains () =
  (* Regression for the handler-thread leak: the server used to append
     every connection's thread to a list joined only at [stop], so the
     list — and each thread's stack — grew with connection *turnover*.
     Now the conns table is the only record, and handlers remove
     themselves: after clients hang up it must drain back to zero. *)
  with_server (fun server _ _ ->
      let wave () =
        let conns = List.init 5 (fun _ -> connect (Server.port server)) in
        List.iter
          (fun c -> Alcotest.(check string) "ping" "PONG" (request c "PING"))
          conns;
        Alcotest.(check bool) "open connections are tracked" true
          (Server.connections server >= 5);
        List.iter
          (fun c -> Alcotest.(check string) "bye" "BYE" (request c "QUIT"))
          conns;
        List.iter close conns;
        (* Handlers unregister asynchronously after BYE; give them a
           bounded moment. *)
        let deadline = Unix.gettimeofday () +. 5. in
        while Server.connections server > 0 && Unix.gettimeofday () < deadline do
          Thread.yield ();
          Thread.delay 0.01
        done;
        Alcotest.(check int) "table drains to zero" 0
          (Server.connections server)
      in
      (* Two waves: turnover must not accumulate anything. *)
      wave ();
      wave ())

(* ---- live ingestion over the socket --------------------------------- *)

let contains line sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length line && (String.sub line i n = sub || go (i + 1))
  in
  go 0

(* The integer of [key=] in a STATS/FLUSHED line; the test fails when
   it is missing. *)
let int_field line key =
  match Metrics.int_field line key with
  | Some n -> n
  | None -> Alcotest.failf "field %s missing in %S" key line

let stems text =
  Array.map Pj_text.Porter.stem (Pj_text.Tokenizer.tokenize_array text)

(* Same corpus as [build ()], but held by a writable live index that the
   server mutates through ADDDOC/DELDOC/FLUSH. *)
let with_live_server ?(background_merge = false) f =
  let config =
    {
      Pj_live.Live_index.default_config with
      memtable_capacity = 4;
      merge_threshold = 2;
      background_merge;
    }
  in
  let live = Pj_live.Live_index.create ~config () in
  List.iter (fun text -> ignore (Pj_live.Live_index.add live (stems text))) texts;
  let graph = Pj_ontology.Mini_wordnet.create () in
  let server = Server.start ~live ~graph (Worker_pool.of_live live) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Pj_live.Live_index.close live)
    (fun () -> f server live)

let test_live_ingest_over_socket () =
  with_live_server (fun server _live ->
      let conn = connect (Server.port server) in
      Fun.protect
        ~finally:(fun () -> close conn)
        (fun () ->
          let q = search_line (List.hd queries) in
          let before = request conn q in
          Alcotest.(check bool) "seed docs answer" true
            (String.length before >= 6 && String.sub before 0 5 = "HITS ");
          (* Warm the cache, then ingest a document that dominates the
             query: the cached pre-ingest response must become
             unreachable the moment the generation bumps. *)
          Alcotest.(check string) "cached" before (request conn q);
          let added =
            request conn "ADDDOC lenovo nba partnership lenovo nba partnership"
          in
          let id =
            match String.split_on_char ' ' added with
            | [ "ADDED"; id ] -> int_of_string id
            | _ -> Alcotest.failf "unexpected ADDDOC reply %S" added
          in
          Alcotest.(check int) "ids stay dense" (List.length texts) id;
          let after = request conn q in
          Alcotest.(check bool) "stale pre-ingest response never served" true
            (after <> before);
          Alcotest.(check bool) "new document is ranked" true
            (contains after (Printf.sprintf " %d:" id));
          (* Deleting it restores the pre-ingest answer byte-for-byte:
             tombstoned = never indexed. *)
          Alcotest.(check string) "deleted"
            (Printf.sprintf "DELETED %d" id)
            (request conn (Printf.sprintf "DELDOC %d" id));
          Alcotest.(check string) "delete visible immediately" before
            (request conn q);
          Alcotest.(check bool) "double delete refused" true
            (contains (request conn (Printf.sprintf "DELDOC %d" id)) "ERR ");
          (* FLUSH reports the new durable generation and segment count. *)
          let flushed = request conn "FLUSH" in
          Alcotest.(check bool) "flushed" true
            (String.length flushed >= 12
            && String.sub flushed 0 12 = "FLUSHED gen=");
          Alcotest.(check bool) "segment count reported" true
            (int_field flushed "segments" >= 1)))

let test_live_stats_accounting () =
  with_live_server (fun server _live ->
      let conn = connect (Server.port server) in
      Fun.protect
        ~finally:(fun () -> close conn)
        (fun () ->
          ignore (request conn (search_line (List.hd queries)));
          ignore (request conn "ADDDOC gardening weather service");
          ignore (request conn (Printf.sprintf "DELDOC %d" (List.length texts)));
          ignore (request conn "DELDOC 999999");
          (* fails: ingest error *)
          ignore (request conn "FLUSH");
          let stats = request conn "STATS" in
          Alcotest.(check bool) "live marker" true (contains stats " live=1 ");
          (* The live accounting invariant, read off the socket. *)
          Alcotest.(check int) "docs = segment + memtable - tombstones"
            (int_field stats "docs")
            (int_field stats "segment_docs"
            + int_field stats "memtable_docs"
            - int_field stats "tombstones");
          Alcotest.(check int) "adds counted" 1 (int_field stats "adds");
          (* Both DELDOCs are requests — the failed one additionally
             shows up as an ingest error. *)
          Alcotest.(check int) "deletes counted" 2 (int_field stats "deletes");
          Alcotest.(check int) "flushes counted" 1 (int_field stats "flushes");
          Alcotest.(check int) "failed delete is an ingest error" 1
            (int_field stats "ingest_errors");
          (* requests = searches + pings + stats + parse_errors
                      + adds + deletes + flushes *)
          Alcotest.(check int) "request accounting closes"
            (int_field stats "requests")
            (int_field stats "searches"
            + int_field stats "pings"
            + int_field stats "stats"
            + int_field stats "parse_errors"
            + int_field stats "adds"
            + int_field stats "deletes"
            + int_field stats "flushes")))

(* A background merger that keeps failing retries every 50 ms; STATS
   must show it, or nobody can see it. *)
let test_merge_errors_in_stats () =
  with_live_server ~background_merge:true (fun server _live ->
      Pj_util.Failpoint.arm "live.merge" Pj_util.Failpoint.Fail;
      Fun.protect ~finally:Pj_util.Failpoint.clear (fun () ->
          let conn = connect (Server.port server) in
          Fun.protect
            ~finally:(fun () -> close conn)
            (fun () ->
              (* Two more sealed segments put the merge policy over its
                 threshold; every attempt then fails. *)
              for i = 1 to 8 do
                ignore (request conn (Printf.sprintf "ADDDOC merge fodder %d" i))
              done;
              let deadline = Pj_util.Timing.monotonic_now () +. 10. in
              let rec wait () =
                let stats = request conn "STATS" in
                if int_field stats "merge_errors" >= 1 then ()
                else if Pj_util.Timing.monotonic_now () > deadline then
                  Alcotest.failf "no merge error reported: %S" stats
                else begin
                  Thread.delay 0.01;
                  wait ()
                end
              in
              wait ())))

(* Many connections appending at once: the batcher must hand every
   client its own dense id exactly once, account every add, and group
   the burst into fewer commits than requests (while never losing
   one). *)
let test_concurrent_adddoc_batched () =
  with_live_server (fun server live ->
      let port = Server.port server in
      let n_clients = 6 and per_client = 5 in
      let base = List.length texts in
      let ids = ref [] in
      let ids_mutex = Mutex.create () in
      let client c =
        let conn = connect port in
        Fun.protect
          ~finally:(fun () -> close conn)
          (fun () ->
            for i = 1 to per_client do
              let line =
                request conn
                  (Printf.sprintf "ADDDOC lenovo nba partnership c%d i%d" c i)
              in
              match String.split_on_char ' ' line with
              | [ "ADDED"; id ] ->
                  Mutex.lock ids_mutex;
                  ids := int_of_string id :: !ids;
                  Mutex.unlock ids_mutex
              | _ -> Alcotest.failf "unexpected ADDDOC reply %S" line
            done)
      in
      let threads = List.init n_clients (fun c -> Thread.create client c) in
      List.iter Thread.join threads;
      let total = n_clients * per_client in
      let got = List.sort compare !ids in
      Alcotest.(check (list int)) "every client got its own dense id"
        (List.init total (fun i -> base + i))
        got;
      Alcotest.(check int) "live index holds them all" (base + total)
        (Pj_live.Live_index.stats live).Pj_live.Live_index.total_docs;
      let conn = connect port in
      Fun.protect
        ~finally:(fun () -> close conn)
        (fun () ->
          let stats = request conn "STATS" in
          Alcotest.(check int) "adds counted" total (int_field stats "adds");
          let batches = int_field stats "ingest_batches" in
          Alcotest.(check bool) "acks were group-committed" true
            (batches >= 1 && batches <= total);
          Alcotest.(check int) "every add rode a batch" total
            (int_field stats "batched_adds");
          (* And the writes are searchable. *)
          let answer = request conn (search_line (List.hd queries)) in
          Alcotest.(check bool) "post-burst search answers" true
            (String.length answer >= 6 && String.sub answer 0 5 = "HITS ")))

(* The batcher's crash path. A [worker.job] panic kills the worker
   domain executing a batch's [add_batch]; the pool completes the task
   [Error], the batcher fans ERR out to every waiter — nobody hangs on
   a dead domain — and once the supervisor respawns the worker the
   server keeps serving. *)
let test_batched_ingest_worker_crash () =
  with_live_server (fun server _live ->
      let port = Server.port server in
      let n_clients = 6 in
      let replies = Array.make n_clients "" in
      Pj_util.Failpoint.arm "worker.job" Pj_util.Failpoint.Panic;
      Fun.protect
        ~finally:(fun () -> Pj_util.Failpoint.clear ())
        (fun () ->
          let client c =
            let conn = connect port in
            Fun.protect
              ~finally:(fun () -> close conn)
              (fun () ->
                replies.(c) <-
                  request conn (Printf.sprintf "ADDDOC doomed batch c%d" c))
          in
          let threads = List.init n_clients (fun c -> Thread.create client c) in
          List.iter Thread.join threads);
      (* Every waiter got an answer — ERR, not a hang — and it is one
         clean line (the panic's exception message went through the
         sanitizer). *)
      Array.iteri
        (fun c line ->
          Alcotest.(check bool)
            (Printf.sprintf "client %d answered ERR, not a hang (got %S)" c
               line)
            true
            (String.length line >= 4 && String.sub line 0 4 = "ERR ");
          Alcotest.(check bool)
            (Printf.sprintf "client %d got a single clean line" c)
            false
            (String.exists (fun ch -> ch < ' ' || ch = '\x7f') line))
        replies;
      (* The pool respawned: ingest and search still work. *)
      let conn = connect port in
      Fun.protect
        ~finally:(fun () -> close conn)
        (fun () ->
          let rec retry n =
            let line = request conn "ADDDOC alive again after the crash" in
            if String.length line >= 6 && String.sub line 0 6 = "ADDED " then
              line
            else if n = 0 then
              Alcotest.failf "server never recovered: %S" line
            else begin
              Thread.delay 0.02;
              retry (n - 1)
            end
          in
          ignore (retry 100);
          let answer = request conn (search_line (List.hd queries)) in
          Alcotest.(check bool) "post-crash search answers" true
            (String.length answer >= 6 && String.sub answer 0 5 = "HITS ")))

(* The commit guard: an exception raised in a batch's completion (here:
   the post-commit [on_batch] hook, via a printer that emits control
   characters) must fan out as one sanitized ERR line per waiter,
   never escape into the worker domain, and never leave the batcher
   wedged. *)
exception Hook_boom

let () =
  Printexc.register_printer (function
    | Hook_boom -> Some "hook exploded\nwith a second line\tand a tab"
    | _ -> None)

let test_batcher_execute_guard () =
  let config =
    {
      Pj_live.Live_index.default_config with
      memtable_capacity = 64;
      background_merge = false;
    }
  in
  let live = Pj_live.Live_index.create ~config () in
  let pool =
    Worker_pool.create ~domains:2 ~queue_capacity:16
      (Worker_pool.of_live live)
  in
  Fun.protect
    ~finally:(fun () ->
      Worker_pool.shutdown pool;
      Pj_live.Live_index.close live)
    (fun () ->
      let batcher =
        Ingest_batcher.create
          ~on_batch:(fun ~size:_ -> raise Hook_boom)
          pool live
      in
      let n = 4 in
      let replies = Array.make n "" in
      let threads =
        List.init n (fun i ->
            Thread.create
              (fun () ->
                replies.(i) <-
                  Ingest_batcher.submit batcher [| "doc"; string_of_int i |])
              ())
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun i line ->
          Alcotest.(check bool)
            (Printf.sprintf "waiter %d got ERR (got %S)" i line)
            true
            (String.length line >= 4 && String.sub line 0 4 = "ERR ");
          Alcotest.(check bool)
            (Printf.sprintf "waiter %d's ERR is one sanitized line" i)
            false
            (String.exists (fun ch -> ch < ' ' || ch = '\x7f') line))
        replies;
      (* Not wedged: a batcher whose hook behaves again acks normally. *)
      let calm =
        Ingest_batcher.create ~on_batch:(fun ~size:_ -> ()) pool live
      in
      let line = Ingest_batcher.submit calm [| "calm"; "doc" |] in
      Alcotest.(check bool) "subsequent submit acks" true
        (String.length line >= 6 && String.sub line 0 6 = "ADDED "))

let test_ingest_refused_without_live () =
  (* A read-only server (no --live) answers every ingest verb with ERR
     and keeps serving searches. *)
  with_server (fun server _ _ ->
      let conn = connect (Server.port server) in
      Fun.protect
        ~finally:(fun () -> close conn)
        (fun () ->
          let is_err line =
            String.length line >= 4 && String.sub line 0 4 = "ERR "
          in
          Alcotest.(check bool) "ADDDOC refused" true
            (is_err (request conn "ADDDOC some text"));
          Alcotest.(check bool) "DELDOC refused" true
            (is_err (request conn "DELDOC 0"));
          Alcotest.(check bool) "FLUSH refused" true
            (is_err (request conn "FLUSH"));
          Alcotest.(check string) "still serving" "PONG" (request conn "PING")))

let suite =
  [
    ("e2e: concurrent clients = direct search", `Quick, test_concurrent_clients_match_direct);
    ("e2e: repeated query hits cache", `Quick, test_repeated_query_served_from_cache);
    ("e2e: deadline timeout", `Quick, test_deadline_timeout);
    ("e2e: shared-form query honors deadline", `Quick, test_shared_form_deadline);
    ("e2e: malformed requests", `Quick, test_malformed_requests_keep_connection);
    ("e2e: stats", `Quick, test_stats_reports);
    ("e2e: over-long line fails connection", `Quick, test_overlong_line_fails_connection);
    ("e2e: connection table drains", `Quick, test_connection_table_drains);
    ("e2e: live ingest over socket", `Quick, test_live_ingest_over_socket);
    ("e2e: live stats accounting", `Quick, test_live_stats_accounting);
    ("e2e: merge errors in live stats", `Quick, test_merge_errors_in_stats);
    ("e2e: concurrent ADDDOC group commit", `Quick, test_concurrent_adddoc_batched);
    ("e2e: batched ingest worker crash", `Quick, test_batched_ingest_worker_crash);
    ("e2e: batcher execute guard", `Quick, test_batcher_execute_guard);
    ("e2e: ingest refused without --live", `Quick, test_ingest_refused_without_live);
  ]
