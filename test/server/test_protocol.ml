open Pj_server

let check_error msg line =
  match Protocol.parse_request line with
  | Ok _ -> Alcotest.failf "%s: %S parsed" msg line
  | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: error nonempty" msg)
        true
        (String.length e > 0)

let check_search msg line expected =
  match Protocol.parse_request line with
  | Ok (Protocol.Search sr) ->
      let { Protocol.family; alpha; k; terms } = expected in
      Alcotest.(check string) (msg ^ ": family") family sr.Protocol.family;
      Alcotest.(check (float 1e-12)) (msg ^ ": alpha") alpha sr.Protocol.alpha;
      Alcotest.(check int) (msg ^ ": k") k sr.Protocol.k;
      Alcotest.(check (list string)) (msg ^ ": terms") terms sr.Protocol.terms
  | Ok _ -> Alcotest.failf "%s: parsed as a different request" msg
  | Error e -> Alcotest.failf "%s: unexpected error %s" msg e

let test_simple_commands () =
  Alcotest.(check bool) "ping" true (Protocol.parse_request "PING" = Ok Protocol.Ping);
  Alcotest.(check bool) "stats" true (Protocol.parse_request "STATS" = Ok Protocol.Stats);
  Alcotest.(check bool) "quit" true (Protocol.parse_request "QUIT" = Ok Protocol.Quit);
  (* Whitespace and carriage returns are tolerated. *)
  Alcotest.(check bool) "padded ping" true
    (Protocol.parse_request "  PING \r" = Ok Protocol.Ping);
  check_error "ping with args" "PING now";
  check_error "lowercase is not a command" "ping"

let test_search_ok () =
  check_search "basic" "SEARCH win 0.2 5 lenovo nba"
    { Protocol.family = "win"; alpha = 0.2; k = 5; terms = [ "lenovo"; "nba" ] };
  check_search "extra spaces" "SEARCH  med  0.1   3  exact:a|exact:b"
    {
      Protocol.family = "med";
      alpha = 0.1;
      k = 3;
      terms = [ "exact:a|exact:b" ];
    };
  check_search "k zero" "SEARCH max 0 0 x"
    { Protocol.family = "max"; alpha = 0.; k = 0; terms = [ "x" ] }

let test_search_malformed () =
  check_error "empty line" "";
  check_error "blank line" "   \r";
  check_error "unknown command" "FETCH docs";
  check_error "no args" "SEARCH";
  check_error "bad arity" "SEARCH win 0.2";
  check_error "no terms" "SEARCH win 0.2 5";
  check_error "unknown family" "SEARCH tfidf 0.2 5 a";
  check_error "bad alpha" "SEARCH win fast 5 a";
  check_error "negative alpha" "SEARCH win -0.5 5 a";
  check_error "nan alpha" "SEARCH win nan 5 a";
  (* Non-finite alpha poisons the exponential scoring closures (every
     score becomes nan or 0), so it must be rejected at the parser. *)
  check_error "inf alpha" "SEARCH win inf 5 a";
  check_error "spelled-out infinity" "SEARCH med infinity 3 a";
  check_error "signed inf" "SEARCH max +inf 3 a";
  check_error "negative inf" "SEARCH win -inf 5 a";
  check_error "bad k" "SEARCH win 0.2 many a";
  check_error "negative k" "SEARCH win 0.2 -1 a";
  check_error "huge k" "SEARCH win 0.2 1000000 a";
  check_error "too many terms"
    ("SEARCH win 0.2 5 " ^ String.concat " " (List.init 17 string_of_int));
  check_error "oversized line" ("SEARCH win 0.2 5 " ^ String.make 5000 'a')

let test_ingest_verbs () =
  (* ADDDOC takes the rest of the line verbatim: internal spacing is
     document content (token positions feed proximity scoring). *)
  Alcotest.(check bool) "adddoc" true
    (Protocol.parse_request "ADDDOC lenovo nba deal"
    = Ok (Protocol.Add_doc "lenovo nba deal"));
  Alcotest.(check bool) "adddoc preserves internal spacing" true
    (Protocol.parse_request "ADDDOC  a   b\tc "
    = Ok (Protocol.Add_doc "a   b\tc"));
  Alcotest.(check bool) "adddoc tolerates leading blanks and \\r" true
    (Protocol.parse_request "  ADDDOC hello world\r"
    = Ok (Protocol.Add_doc "hello world"));
  check_error "adddoc without text" "ADDDOC";
  check_error "adddoc with only blanks" "ADDDOC   \r";
  Alcotest.(check bool) "deldoc" true
    (Protocol.parse_request "DELDOC 12" = Ok (Protocol.Del_doc 12));
  Alcotest.(check bool) "deldoc zero" true
    (Protocol.parse_request "DELDOC 0" = Ok (Protocol.Del_doc 0));
  check_error "deldoc negative" "DELDOC -3";
  check_error "deldoc non-numeric" "DELDOC twelve";
  check_error "deldoc missing id" "DELDOC";
  check_error "deldoc extra args" "DELDOC 1 2";
  Alcotest.(check bool) "flush" true
    (Protocol.parse_request "FLUSH" = Ok Protocol.Flush);
  Alcotest.(check bool) "padded flush" true
    (Protocol.parse_request " FLUSH \r" = Ok Protocol.Flush);
  check_error "flush with args" "FLUSH now"

let test_ingest_renderers () =
  Alcotest.(check string) "added" "ADDED 7" (Protocol.added 7);
  Alcotest.(check string) "deleted" "DELETED 0" (Protocol.deleted 0);
  Alcotest.(check string) "flushed" "FLUSHED gen=12 segments=3"
    (Protocol.flushed ~generation:12 ~segments:3);
  (* Write acknowledgements are per-request facts, never cacheable. *)
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "is_ingest_success %S" r)
        true (Protocol.is_ingest_success r);
      Alcotest.(check bool)
        (Printf.sprintf "not cacheable %S" r)
        false (Protocol.cacheable r);
      Alcotest.(check bool)
        (Printf.sprintf "not a search success %S" r)
        false
        (Protocol.is_search_success r))
    [ Protocol.added 7; Protocol.deleted 0; Protocol.flushed ~generation:1 ~segments:1 ];
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "not an ingest success %S" r)
        false (Protocol.is_ingest_success r))
    [ "HITS 0"; "PONG"; "ERR no such document 3"; "BUSY"; "TIMEOUT"; "" ]

let test_cache_key_normalization () =
  let key family alpha k terms = Protocol.cache_key { Protocol.family; alpha; k; terms } in
  Alcotest.(check bool) "term order matters" true
    (key "win" 0.2 5 [ "a"; "b" ] <> key "win" 0.2 5 [ "b"; "a" ]);
  Alcotest.(check bool) "k matters" true
    (key "win" 0.2 5 [ "a" ] <> key "win" 0.2 6 [ "a" ]);
  Alcotest.(check bool) "alpha matters" true
    (key "win" 0.2 5 [ "a" ] <> key "win" 0.3 5 [ "a" ]);
  Alcotest.(check bool) "family matters" true
    (key "win" 0.2 5 [ "a" ] <> key "med" 0.2 5 [ "a" ])

let test_scoring_of () =
  (match Protocol.scoring_of ~family:"win" ~alpha:0.1 with
  | Ok (Pj_core.Scoring.Win _) -> ()
  | _ -> Alcotest.fail "win family");
  (match Protocol.scoring_of ~family:"quux" ~alpha:0.1 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown family accepted")

let test_renderers () =
  Alcotest.(check string) "no hits" "HITS 0" (Protocol.string_of_hits []);
  Alcotest.(check string) "err is one line" "ERR a b"
    (Protocol.err "a\nb");
  Alcotest.(check string) "degraded wraps the hits line"
    "OK-DEGRADED shards=1,3 HITS 0"
    (Protocol.ok_degraded ~failed_shards:[ 1; 3 ] [])

let test_response_classes () =
  let cases =
    (* (response, cacheable, search success) *)
    [
      ("HITS 0", true, true);
      ("HITS 2 1:0.5 2:0.25", true, true);
      ("OK-DEGRADED shards=0 HITS 1 7:0.5", false, true);
      ("TIMEOUT", false, false);
      ("BUSY", false, false);
      ("ERR boom", false, false);
      ("PONG", false, false);
      ("HITS", false, false);
      (* truncated, not a well-formed response *)
      ("", false, false);
    ]
  in
  List.iter
    (fun (r, want_cache, want_success) ->
      Alcotest.(check bool)
        (Printf.sprintf "cacheable %S" r)
        want_cache (Protocol.cacheable r);
      Alcotest.(check bool)
        (Printf.sprintf "is_search_success %S" r)
        want_success
        (Protocol.is_search_success r))
    cases

(* A search function scripted by [k]: 1 answers HITS, 2 raises, 3
   times out, 4 answers degraded with two failed shards after burning
   0.3 s. *)
let scripted ~scoring:_ ~k ~deadline:_ _query =
  match k with
  | 1 -> Ok ([], [])
  | 2 -> failwith "scripted failure"
  | 3 -> Error `Timeout
  | _ ->
      Thread.delay 0.3;
      Ok ([], [ 0; 1 ])

let test_stats_request_accounting () =
  (* Regression for the STATS double-count: a failed SEARCH used to be
     added to both [searches] and [errors], and [requests] summed the
     two — so one request line counted twice. Replay a mixed workload
     over the socket and hold the invariants STATS documents. *)
  let live = Pj_live.Live_index.create () in
  let server =
    Server.start ~live ~graph:(Pj_ontology.Mini_wordnet.create ()) scripted
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Pj_live.Live_index.close live)
    (fun () ->
      let conn = Test_e2e.connect (Server.port server) in
      Fun.protect
        ~finally:(fun () -> Test_e2e.close conn)
        (fun () ->
          let send line = ignore (Test_e2e.request conn line) in
          (* 4 searches: one served, one failing at evaluation, one
             timing out, and one answered degraded (2 of its shard legs
             failed). The degraded one is not [served], and its 0.3 s
             stays out of the healthy latency histogram. *)
          List.iter
            (fun k -> send (Printf.sprintf "SEARCH win 0.2 %d exact:lenovo" k))
            [ 1; 2; 3; 4 ];
          (* 2 request lines that never parsed into a command. *)
          send "BOGUS";
          send "SEARCH";
          send "PING";
          (* 3 writes: a served ADDDOC, a DELDOC failing at evaluation,
             and a FLUSH. The failing DELDOC is already counted in
             [deletes], so its ingest error must not add a request. *)
          send "ADDDOC lenovo nba";
          send "DELDOC 999";
          send "FLUSH";
          (* ... and the STATS request itself. *)
          let s = Test_e2e.request conn "STATS" in
          let f = Test_e2e.int_field s in
          Alcotest.(check int)
            "requests = searches + pings + stats + parse errors + adds + \
             deletes + flushes"
            (f "searches" + f "pings" + f "stats" + f "parse_errors" + f "adds"
           + f "deletes" + f "flushes")
            (f "requests");
          Alcotest.(check int) "exactly the 11 request lines" 11 (f "requests");
          Alcotest.(check int) "searches" 4 (f "searches");
          Alcotest.(check int) "parse errors" 2 (f "parse_errors");
          Alcotest.(check int) "search errors" 1 (f "search_errors");
          Alcotest.(check int) "timeouts" 1 (f "timeouts");
          Alcotest.(check int) "adds" 1 (f "adds");
          Alcotest.(check int) "deletes" 1 (f "deletes");
          Alcotest.(check int) "flushes" 1 (f "flushes");
          Alcotest.(check int) "ingest errors" 1 (f "ingest_errors");
          Alcotest.(check int) "errors = parse + search + ingest errors"
            (f "parse_errors" + f "search_errors" + f "ingest_errors")
            (f "errors");
          Alcotest.(check int) "served only counts HITS responses" 1 (f "served");
          Alcotest.(check int) "degraded responses" 1 (f "degraded");
          Alcotest.(check int) "failed shard legs" 2 (f "shard_failures");
          let max_ms =
            float_of_string (Option.get (Metrics.field s "max_ms"))
          in
          Alcotest.(check bool)
            (Printf.sprintf "degraded latency kept out (max_ms=%g)" max_ms)
            true (max_ms < 300.)))

(* A total and its members must come from one read of the counters,
   and a group from one read of its source, even when a value changes
   while the line renders: here a gauge rendered between a total and
   its member bumps the member, as a request landing mid-render would. *)
let test_metrics_render_is_one_read () =
  let m = Metrics.create () in
  let tot = Metrics.total m "total" in
  let bump = ref ignore in
  Metrics.gauge m "bump" (fun () ->
      !bump ();
      Metrics.Int 0);
  let member = Metrics.counter ~into:[ tot ] m "member" in
  (bump := fun () -> Metrics.incr member);
  let reads = ref 0 in
  Metrics.group m
    (fun () ->
      incr reads;
      !reads)
    [ ("a", fun n -> Metrics.Int n); ("b", fun n -> Metrics.Int n) ];
  Metrics.add member 2;
  let line = Metrics.render m in
  Alcotest.(check string) "one frame"
    "STATS total=2 bump=0 member=2 a=1 b=1" line;
  Alcotest.(check (option int)) "the bump shows next time" (Some 3)
    (Metrics.int_field (Metrics.render m) "member");
  Alcotest.(check (option int)) "field anchors on the space" None
    (Metrics.int_field "STATS segment_docs=4" "docs")

(* Satellite regression: ERR payloads come from arbitrary exception
   messages — a reason containing a newline used to be flattened, but
   other control bytes (tabs, NUL, escapes) sailed straight into the
   one-line framing. Every run of whitespace/control bytes must
   collapse to a single space. *)
let test_err_sanitized () =
  Alcotest.(check string) "plain reason untouched" "ERR no such document 5"
    (Protocol.err "no such document 5");
  Alcotest.(check string) "newline cannot inject a phantom line"
    "ERR boom injected line"
    (Protocol.err "boom\ninjected line");
  Alcotest.(check string) "CRLF and tab runs collapse" "ERR a b c"
    (Protocol.err "a\t\tb\r\nc");
  Alcotest.(check string) "NUL and DEL collapse" "ERR x y"
    (Protocol.err "x\x00\x7fy");
  (* The ESC byte itself is neutralized; the printable remainder of an
     ANSI sequence is harmless text. *)
  Alcotest.(check string) "escape byte neutralized" "ERR red [31m text"
    (Protocol.err "red\x1b[31m text");
  Alcotest.(check string) "leading/trailing runs trimmed" "ERR inner words"
    (Protocol.err "  \ninner words\r\n");
  let sanitized = Protocol.err "a\nmulti\nline\nexception\n" in
  Alcotest.(check bool) "never more than one line" false
    (String.contains sanitized '\n' || String.contains sanitized '\r')

let suite =
  [
    ("protocol: err payloads sanitized to one line", `Quick, test_err_sanitized);
    ("protocol: simple commands", `Quick, test_simple_commands);
    ("protocol: search ok", `Quick, test_search_ok);
    ("protocol: malformed", `Quick, test_search_malformed);
    ("protocol: ingest verbs", `Quick, test_ingest_verbs);
    ("protocol: ingest renderers", `Quick, test_ingest_renderers);
    ("protocol: cache key", `Quick, test_cache_key_normalization);
    ("protocol: scoring_of", `Quick, test_scoring_of);
    ("protocol: renderers", `Quick, test_renderers);
    ("protocol: response classes", `Quick, test_response_classes);
    ("protocol: stats request accounting", `Quick, test_stats_request_accounting);
    ("protocol: stats render is one read", `Quick, test_metrics_render_is_one_read);
  ]
