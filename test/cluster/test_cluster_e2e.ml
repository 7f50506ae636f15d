open Pj_server
module Frame = Pj_frame.Frame
module Wire = Pj_frame.Wire
module Backend = Pj_cluster.Backend
module Router = Pj_cluster.Router

(* Same corpus as the server e2e suite, split into contiguous slices so
   a router over per-slice backends serves the same global doc ids as a
   monolithic server over the whole list. *)
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

let slice ~from ~len = List.filteri (fun i _ -> i >= from && i < from + len) texts
let stems text =
  Array.map Pj_text.Porter.stem (Pj_text.Tokenizer.tokenize_array text)

let build_searcher texts =
  let corpus = Pj_index.Corpus.create () in
  List.iter (fun t -> ignore (Pj_index.Corpus.add_tokens corpus (stems t))) texts;
  Pj_engine.Searcher.create (Pj_index.Inverted_index.build corpus)

(* The oracle: raw (global_id, score) pairs a given slice contributes,
   already rebased. Renders through the same Protocol formatters the
   server uses, at either wire's precision. *)
let slice_pairs ~base texts ~family ~alpha ~k terms =
  let searcher = build_searcher texts in
  let graph = Pj_ontology.Mini_wordnet.create () in
  match Pj_matching.Query_parser.parse graph terms with
  | Error msg -> Alcotest.failf "oracle query failed to parse: %s" msg
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
      List.map
        (fun (h : Pj_engine.Searcher.hit) ->
          (h.Pj_engine.Searcher.doc_id + base, h.Pj_engine.Searcher.score))
        (Pj_engine.Searcher.search ~k searcher scoring query)

let mono_response ?precision ~family ~alpha ~k terms =
  Protocol.string_of_id_scores ?precision
    (slice_pairs ~base:0 texts ~family ~alpha ~k terms)

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

(* ---- socket clients -------------------------------------------------- *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (* Nothing in this suite may hang: a stuck read is a 20 s Sys_error,
     i.e. a test failure, not a wedged run. *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 20.0;
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let request conn line =
  output_string conn.oc line;
  output_char conn.oc '\n';
  flush conn.oc;
  input_line conn.ic

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

let bsend conn ~id line =
  Wire.write_flush conn.oc { Frame.kind = Frame.Request; id; payload = line }

let brecv conn =
  match Wire.read conn.ic with
  | Wire.Frame f -> f
  | Wire.Closed -> Alcotest.fail "binary connection closed unexpectedly"
  | Wire.Bad _ -> Alcotest.fail "server sent a malformed frame"

let brequest conn ~id line =
  bsend conn ~id line;
  let f = brecv conn in
  Alcotest.(check int) "response id echoes request id" id f.Frame.id;
  (f.Frame.kind, f.Frame.payload)

let int_field line key =
  match Pj_server.Metrics.int_field line key with
  | Some n -> n
  | None -> Alcotest.failf "field %s missing in %S" key line

let contains line sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length line && (String.sub line i n = sub || go (i + 1))
  in
  go 0

(* ---- cluster scaffolding --------------------------------------------- *)

let light = { Server.default_config with Server.domains = 1 }

let start_backend texts =
  let searcher = build_searcher texts in
  let graph = Pj_ontology.Mini_wordnet.create () in
  Server.start ~config:light
    ~stats:(Server.static_docs (List.length texts))
    ~graph (Worker_pool.of_searcher searcher)

let spec_of server =
  { Router.host = "127.0.0.1"; port = Server.port server; base = None }

let never_searches ~scoring:_ ~k:_ ~deadline:_ _query =
  Ok ([], [])

(* Start [1 + replicas] backend servers per slice (all serving that same
   slice), a router over them with bases derived from STATS docs=, and
   the router-front server. [f] gets the front server, the router, and
   the backend servers as a per-leg list (primary first). *)
let with_cluster ?(replicas = 0) ~slices f =
  let backends =
    List.map (fun texts -> List.init (replicas + 1) (fun _ -> start_backend texts))
      slices
  in
  let stop_backends () =
    List.iter (List.iter (fun s -> Server.stop s)) backends
  in
  let legs =
    List.map
      (fun servers ->
        match List.map spec_of servers with
        | p :: rs -> (p, rs)
        | [] -> assert false)
      backends
  in
  match Router.create ~legs () with
  | Error e ->
      stop_backends ();
      Alcotest.failf "router failed to start: %s" e
  | Ok router ->
      let front =
        Server.start ~config:light ~forward:(Router.forward router)
          ~stats:(Router.register_stats router)
          ~graph:(Pj_ontology.Mini_wordnet.create ())
          never_searches
      in
      Fun.protect
        ~finally:(fun () ->
          Server.stop front;
          Router.close router;
          stop_backends ())
        (fun () -> f front router backends)

(* ---- tests ----------------------------------------------------------- *)

let test_routed_matches_mono () =
  (* Both splits — an even 4/4 and an uneven 3/3/2 — must answer every
     query byte-for-byte like a monolithic server over the full corpus,
     on both wire dialects. *)
  List.iter
    (fun slices ->
      with_cluster ~slices (fun front _router _backends ->
          let conn = connect (Server.port front) in
          Fun.protect
            ~finally:(fun () -> close conn)
            (fun () ->
              List.iter
                (fun ((family, alpha, k, terms) as q) ->
                  Alcotest.(check string)
                    (Printf.sprintf "routed text response for %s" (search_line q))
                    (mono_response ~family ~alpha ~k terms)
                    (request conn (search_line q)))
                queries);
          let bconn = connect (Server.port front) in
          Fun.protect
            ~finally:(fun () -> close bconn)
            (fun () ->
              List.iteri
                (fun i ((family, alpha, k, terms) as q) ->
                  let kind, payload = brequest bconn ~id:(i + 1) (search_line q) in
                  Alcotest.(check bool) "binary response kind" true
                    (kind = Frame.Response);
                  Alcotest.(check string)
                    (Printf.sprintf "routed binary response for %s" (search_line q))
                    (mono_response ~precision:Protocol.exact_precision ~family
                       ~alpha ~k terms)
                    payload)
                queries)))
    [
      [ slice ~from:0 ~len:4; slice ~from:4 ~len:4 ];
      [ slice ~from:0 ~len:3; slice ~from:3 ~len:3; slice ~from:6 ~len:2 ];
    ]

let test_text_and_binary_interleave () =
  (* One backend server, one text client and one binary client taking
     turns on the same socket loop: each sees its own dialect's
     rendering of the same searches, neither corrupts the other. *)
  let server = start_backend texts in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let t = connect (Server.port server) in
      let b = connect (Server.port server) in
      Fun.protect
        ~finally:(fun () ->
          close t;
          close b)
        (fun () ->
          List.iteri
            (fun i ((family, alpha, k, terms) as q) ->
              let text_got = request t (search_line q) in
              Alcotest.(check string) "text dialect at text precision"
                (mono_response ~family ~alpha ~k terms)
                text_got;
              let _, bin_got = brequest b ~id:(i + 10) (search_line q) in
              Alcotest.(check string) "binary dialect at exact precision"
                (mono_response ~precision:Protocol.exact_precision ~family
                   ~alpha ~k terms)
                bin_got;
              Alcotest.(check string) "text ping" "PONG" (request t "PING");
              let _, pong = brequest b ~id:(i + 100) "PING" in
              Alcotest.(check string) "binary ping" "PONG" pong)
            queries))

let test_binary_pipelining () =
  (* Many requests written before any response is read; answers are
     matched by request id, whatever order they arrive in. *)
  let server = start_backend texts in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let conn = connect (Server.port server) in
      Fun.protect
        ~finally:(fun () -> close conn)
        (fun () ->
          let n = List.length queries in
          let rounds = 5 in
          let total = n * rounds in
          let want = Hashtbl.create total in
          for r = 0 to rounds - 1 do
            List.iteri
              (fun i ((family, alpha, k, terms) as q) ->
                let id = 1000 + (r * n) + i in
                Hashtbl.replace want id
                  (mono_response ~precision:Protocol.exact_precision ~family
                     ~alpha ~k terms);
                bsend conn ~id (search_line q))
              queries
          done;
          for _ = 1 to total do
            let f = brecv conn in
            match Hashtbl.find_opt want f.Frame.id with
            | None -> Alcotest.failf "unknown or duplicate id %d" f.Frame.id
            | Some expected ->
                Alcotest.(check string)
                  (Printf.sprintf "pipelined response %d" f.Frame.id)
                  expected f.Frame.payload;
                Hashtbl.remove want f.Frame.id
          done;
          Alcotest.(check int) "every request answered" 0 (Hashtbl.length want)))

let test_binary_inflight_cap_still_answers_all () =
  (* A tiny in-flight cap throttles the reader (TCP backpressure), but
     every pipelined request is still answered, correctly and exactly
     once. *)
  let searcher = build_searcher texts in
  let server =
    Server.start
      ~config:{ light with Server.binary_inflight = 2 }
      ~stats:(Server.static_docs (List.length texts))
      ~graph:(Pj_ontology.Mini_wordnet.create ())
      (Worker_pool.of_searcher searcher)
  in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let conn = connect (Server.port server) in
      Fun.protect
        ~finally:(fun () -> close conn)
        (fun () ->
          let q = List.hd queries in
          let family, alpha, k, terms = q in
          let expected =
            mono_response ~precision:Protocol.exact_precision ~family ~alpha
              ~k terms
          in
          let total = 40 in
          (* Writer thread: the reader (this thread) must drain while
             the writer is still pushing, or a 2-deep cap plus a full
             socket buffer could deadlock the single client. *)
          let writer =
            Thread.create
              (fun () ->
                for id = 1 to total do
                  bsend conn ~id (search_line q)
                done)
              ()
          in
          let seen = Array.make (total + 1) false in
          for _ = 1 to total do
            let f = brecv conn in
            Alcotest.(check string) "capped response" expected f.Frame.payload;
            if seen.(f.Frame.id) then
              Alcotest.failf "id %d answered twice" f.Frame.id;
            seen.(f.Frame.id) <- true
          done;
          Thread.join writer))

let test_hostile_binary_input () =
  (* Oversized, corrupt, and garbage frames each cost exactly one framed
     error and the connection — never the server. *)
  let server = start_backend texts in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let expect_fatal name send =
        let conn = connect (Server.port server) in
        Fun.protect
          ~finally:(fun () -> close conn)
          (fun () ->
            send conn;
            (match Wire.read conn.ic with
            | Wire.Frame f ->
                Alcotest.(check bool)
                  (name ^ ": one framed error") true
                  (f.Frame.kind = Frame.Error_frame
                  && String.length f.Frame.payload >= 4
                  && String.sub f.Frame.payload 0 4 = "ERR ")
            | _ -> Alcotest.failf "%s: expected an error frame" name);
            match Wire.read conn.ic with
            | Wire.Closed -> ()
            | Wire.Frame _ -> Alcotest.failf "%s: server kept talking" name
            | Wire.Bad _ -> Alcotest.failf "%s: trailing garbage" name)
      in
      expect_fatal "oversized" (fun conn ->
          bsend conn ~id:1
            (String.make (Protocol.max_line_bytes + 128) 'a'));
      expect_fatal "negative length" (fun conn ->
          let b = Bytes.create 8 in
          Bytes.set b 0 Frame.magic_byte;
          Bytes.set b 1 'P';
          Bytes.set b 2 'J';
          Bytes.set b 3 (Char.chr Frame.version);
          Bytes.set_int32_be b 4 (-77l);
          output_bytes conn.oc b;
          flush conn.oc);
      expect_fatal "garbage after magic" (fun conn ->
          output_string conn.oc (String.make 1 Frame.magic_byte ^ "garbage!");
          flush conn.oc);
      expect_fatal "corrupt crc" (fun conn ->
          let s =
            Bytes.of_string
              (Frame.to_string
                 { Frame.kind = Frame.Request; id = 3; payload = "PING" })
          in
          let last = Bytes.length s - 1 in
          Bytes.set s last (Char.chr (Char.code (Bytes.get s last) lxor 0xff));
          output_bytes conn.oc s;
          flush conn.oc);
      let parse_errors () =
        let conn = connect (Server.port server) in
        Fun.protect
          ~finally:(fun () -> close conn)
          (fun () -> int_field (request conn "STATS") "parse_errors")
      in
      let before = parse_errors () in
      expect_fatal "overflowing payload length" (fun conn ->
          let overflow = String.make 8 '\xff' ^ "\x7f" in
          output_string conn.oc
            (Test_frame.with_body ("\x05\x01" ^ overflow ^ "PING"));
          flush conn.oc);
      Alcotest.(check int) "overflowing payload length: one parse error"
        (before + 1) (parse_errors ());
      (* All that abuse was per-connection. *)
      let conn = connect (Server.port server) in
      Fun.protect
        ~finally:(fun () -> close conn)
        (fun () ->
          let _, pong = brequest conn ~id:9 "PING" in
          Alcotest.(check string) "server survives" "PONG" pong))

let test_replica_failover () =
  (* Kill leg 0's primary: the router must answer the full, undegraded
     result off the replica and count the failover. *)
  with_cluster ~replicas:1
    ~slices:[ slice ~from:0 ~len:4; slice ~from:4 ~len:4 ]
    (fun front router backends ->
      let conn = connect (Server.port front) in
      Fun.protect
        ~finally:(fun () -> close conn)
        (fun () ->
          let q0 = List.hd queries in
          let family, alpha, k, terms = q0 in
          Alcotest.(check string) "healthy first"
            (mono_response ~family ~alpha ~k terms)
            (request conn (search_line q0));
          Server.kill (List.hd (List.hd backends));
          (* A different query: this test is about the failover path,
             not the cache. *)
          let q1 = List.nth queries 2 in
          let family, alpha, k, terms = q1 in
          Alcotest.(check string) "failover answer is complete and exact"
            (mono_response ~family ~alpha ~k terms)
            (request conn (search_line q1));
          Alcotest.(check bool) "retry counted" true
            (Router.backend_retries router >= 1);
          Alcotest.(check bool) "failover counted" true
            (Router.failovers router >= 1);
          let stats = request conn "STATS" in
          Alcotest.(check bool) "failovers on the wire" true
            (int_field stats "failovers" >= 1);
          Alcotest.(check bool) "retries on the wire" true
            (int_field stats "backend_retries" >= 1)))

let test_degraded_is_exact_top_k_of_survivors () =
  (* No replicas: killing leg 1 must degrade, and the answer must be
     the *exact* top-k over leg 0's slice — the oracle is an in-process
     search over that slice alone. *)
  with_cluster ~slices:[ slice ~from:0 ~len:4; slice ~from:4 ~len:4 ]
    (fun front _router backends ->
      Server.kill (List.hd (List.nth backends 1));
      let conn = connect (Server.port front) in
      Fun.protect
        ~finally:(fun () -> close conn)
        (fun () ->
          List.iter
            (fun ((family, alpha, k, terms) as q) ->
              let pairs =
                slice_pairs ~base:0 (slice ~from:0 ~len:4) ~family ~alpha ~k
                  terms
              in
              Alcotest.(check string)
                (Printf.sprintf "degraded oracle for %s" (search_line q))
                (Protocol.ok_degraded_ids ~failed_shards:[ 1 ] pairs)
                (request conn (search_line q)))
            queries;
          (* Degraded responses are never cached: the cache must still
             be empty after all those queries. *)
          let _, _, cache_len = Result_cache.stats (Server.cache front) in
          Alcotest.(check int) "degraded never cached" 0 cache_len;
          let stats = request conn "STATS" in
          Alcotest.(check bool) "degraded counted" true
            (int_field stats "degraded" >= List.length queries);
          Alcotest.(check bool) "dead backend visible" true
            (contains stats "backend.1.0.up=0")))

let test_cache_follows_cluster_epoch () =
  (* A complete HITS cached while both legs were healthy must not be
     replayed once a leg's backend is known dead: the backend's up/down
     transition moves the front's cache to a new epoch. *)
  with_cluster ~slices:[ slice ~from:0 ~len:4; slice ~from:4 ~len:4 ]
    (fun front _router backends ->
      let conn = connect (Server.port front) in
      Fun.protect
        ~finally:(fun () -> close conn)
        (fun () ->
          let ((family, alpha, k, terms) as q) = List.hd queries in
          let healthy = mono_response ~family ~alpha ~k terms in
          Alcotest.(check string) "healthy answer" healthy
            (request conn (search_line q));
          let hits0, _, _ = Result_cache.stats (Server.cache front) in
          Alcotest.(check string) "served again" healthy
            (request conn (search_line q));
          let hits1, _, _ = Result_cache.stats (Server.cache front) in
          Alcotest.(check int) "from the cache" (hits0 + 1) hits1;
          Server.kill (List.hd (List.nth backends 1));
          let give_up = Unix.gettimeofday () +. 5. in
          while
            (not (contains (request conn "STATS") "backend.1.0.up=0"))
            && Unix.gettimeofday () < give_up
          do
            Thread.delay 0.01
          done;
          Alcotest.(check bool) "the router saw the backend die" true
            (contains (request conn "STATS") "backend.1.0.up=0");
          let pairs =
            slice_pairs ~base:0 (slice ~from:0 ~len:4) ~family ~alpha ~k terms
          in
          Alcotest.(check string) "the cached HITS is not replayed"
            (Protocol.ok_degraded_ids ~failed_shards:[ 1 ] pairs)
            (request conn (search_line q))))

let test_failpoint_leg_and_retry () =
  (* [router.leg.0] armed: the leg fails before its frame is even
     written; the response degrades to leg 1's slice, rebased. *)
  with_cluster ~slices:[ slice ~from:0 ~len:4; slice ~from:4 ~len:4 ]
    (fun front _router _backends ->
      let conn = connect (Server.port front) in
      Fun.protect
        ~finally:(fun () ->
          Pj_util.Failpoint.clear ();
          close conn)
        (fun () ->
          Pj_util.Failpoint.arm "router.leg.0" Pj_util.Failpoint.Fail;
          let family, alpha, k, terms = List.hd queries in
          let pairs =
            slice_pairs ~base:4 (slice ~from:4 ~len:4) ~family ~alpha ~k terms
          in
          Alcotest.(check string) "leg failpoint degrades to the other slice"
            (Protocol.ok_degraded_ids ~failed_shards:[ 0 ] pairs)
            (request conn (search_line (List.hd queries)));
          Alcotest.(check bool) "site fired" true
            (Pj_util.Failpoint.fired "router.leg.0" >= 1)));
  (* [router.retry] armed with a dead primary and a live replica: every
     failover attempt is vetoed, so the leg degrades instead of failing
     over — and the retry was still counted. *)
  with_cluster ~replicas:1
    ~slices:[ slice ~from:0 ~len:4; slice ~from:4 ~len:4 ]
    (fun front router backends ->
      let conn = connect (Server.port front) in
      Fun.protect
        ~finally:(fun () ->
          Pj_util.Failpoint.clear ();
          close conn)
        (fun () ->
          Server.kill (List.hd (List.hd backends));
          Pj_util.Failpoint.arm "router.retry" Pj_util.Failpoint.Fail;
          let family, alpha, k, terms = List.nth queries 2 in
          let pairs =
            slice_pairs ~base:4 (slice ~from:4 ~len:4) ~family ~alpha ~k terms
          in
          Alcotest.(check string) "vetoed retry degrades"
            (Protocol.ok_degraded_ids ~failed_shards:[ 0 ] pairs)
            (request conn (search_line (List.nth queries 2)));
          Alcotest.(check bool) "retry attempted" true
            (Router.backend_retries router >= 1);
          Alcotest.(check int) "no failover happened" 0
            (Router.failovers router);
          Alcotest.(check bool) "retry site fired" true
            (Pj_util.Failpoint.fired "router.retry" >= 1)))

let test_failpoint_connect () =
  (* [router.connect] fires before the (re)connect attempt: a backend
     pointed at a live server still resolves Down while armed. *)
  let server = start_backend texts in
  let b = Backend.create ~host:"127.0.0.1" ~port:(Server.port server) in
  Fun.protect
    ~finally:(fun () ->
      Pj_util.Failpoint.clear ();
      Backend.close b;
      Server.stop server)
    (fun () ->
      Pj_util.Failpoint.arm "router.connect" Pj_util.Failpoint.Fail;
      let deadline = Pj_util.Timing.monotonic_now () +. 5. in
      (match Backend.request b ~line:"PING" ~deadline with
      | Backend.Down _ -> ()
      | Backend.Line _ | Backend.Timed_out ->
          Alcotest.fail "armed router.connect must resolve Down");
      Alcotest.(check bool) "site fired" true
        (Pj_util.Failpoint.fired "router.connect" >= 1);
      Pj_util.Failpoint.clear ();
      (* Disarmed, the same backend connects and serves. *)
      match Backend.request b ~line:"PING" ~deadline with
      | Backend.Line "PONG" -> ()
      | _ -> Alcotest.fail "backend should recover once disarmed")

let test_router_stats_invariant () =
  (* The server-tier accounting identity, asserted over the socket on a
     *router* front — including ingest verbs, which a router refuses
     with ERR but must still count. *)
  with_cluster ~slices:[ slice ~from:0 ~len:4; slice ~from:4 ~len:4 ]
    (fun front _router _backends ->
      let conn = connect (Server.port front) in
      Fun.protect
        ~finally:(fun () -> close conn)
        (fun () ->
          ignore (request conn (search_line (List.hd queries)));
          ignore (request conn (search_line (List.hd queries)));
          (* cached *)
          ignore (request conn (search_line (List.nth queries 1)));
          ignore (request conn "PING");
          ignore (request conn "GARBAGE VERB");
          ignore (request conn "ADDDOC not on a router");
          ignore (request conn "DELDOC 3");
          ignore (request conn "FLUSH");
          let stats = request conn "STATS" in
          Alcotest.(check int) "request accounting closes on the router"
            (int_field stats "requests")
            (int_field stats "searches"
            + int_field stats "pings"
            + int_field stats "stats"
            + int_field stats "parse_errors"
            + int_field stats "adds"
            + int_field stats "deletes"
            + int_field stats "flushes");
          Alcotest.(check int) "searches" 3 (int_field stats "searches");
          Alcotest.(check int) "cache hit" 1 (int_field stats "cache_hits");
          Alcotest.(check int) "adds" 1 (int_field stats "adds");
          Alcotest.(check int) "deletes" 1 (int_field stats "deletes");
          Alcotest.(check int) "flushes" 1 (int_field stats "flushes");
          Alcotest.(check int) "refused ingest = ingest errors" 3
            (int_field stats "ingest_errors");
          (* Router-tier fields are present and consistent. *)
          Alcotest.(check int) "router_legs" 2 (int_field stats "router_legs");
          Alcotest.(check int) "no retries in a healthy cluster" 0
            (int_field stats "backend_retries");
          Alcotest.(check int) "no failovers in a healthy cluster" 0
            (int_field stats "failovers");
          Alcotest.(check bool) "per-backend health rendered" true
            (contains stats "backend.0.0.up=1"
            && contains stats "backend.1.0.up=1");
          (* 2 uncached searches + 2 sizing STATS at create = per-leg
             requests; both legs served every uncached search. *)
          Alcotest.(check bool) "legs saw the uncached searches" true
            (int_field stats "backend.0.0.requests" >= 2
            && int_field stats "backend.1.0.requests" >= 2)))

let suite =
  [
    ("cluster: routed = mono, both dialects", `Quick, test_routed_matches_mono);
    ("cluster: text and binary interleave", `Quick, test_text_and_binary_interleave);
    ("cluster: binary pipelining by id", `Quick, test_binary_pipelining);
    ("cluster: inflight cap answers all", `Quick, test_binary_inflight_cap_still_answers_all);
    ("cluster: hostile binary input", `Quick, test_hostile_binary_input);
    ("cluster: replica failover", `Quick, test_replica_failover);
    ("cluster: degraded = exact survivors", `Quick, test_degraded_is_exact_top_k_of_survivors);
    ("cluster: cache follows cluster epoch", `Quick, test_cache_follows_cluster_epoch);
    ("cluster: failpoints leg/retry", `Quick, test_failpoint_leg_and_retry);
    ("cluster: failpoint connect", `Quick, test_failpoint_connect);
    ("cluster: router stats invariant", `Quick, test_router_stats_invariant);
  ]
