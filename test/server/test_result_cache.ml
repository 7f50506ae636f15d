open Pj_server

let test_hit_miss_counters () =
  let c = Result_cache.create ~capacity:4 in
  Alcotest.(check (option string)) "cold" None (Result_cache.find c "k1");
  Result_cache.add c "k1" "HITS 0";
  Alcotest.(check (option string)) "warm" (Some "HITS 0") (Result_cache.find c "k1");
  ignore (Result_cache.find c "k1");
  ignore (Result_cache.find c "k2");
  let hits, misses, len = Result_cache.stats c in
  Alcotest.(check int) "hits" 2 hits;
  Alcotest.(check int) "misses" 2 misses;
  Alcotest.(check int) "len" 1 len

let test_eviction () =
  let c = Result_cache.create ~capacity:2 in
  Result_cache.add c "a" "HITS 1 1:1";
  Result_cache.add c "b" "HITS 1 2:1";
  Result_cache.add c "c" "HITS 1 3:1";
  Alcotest.(check (option string)) "a evicted" None (Result_cache.find c "a");
  Alcotest.(check (option string))
    "c kept" (Some "HITS 1 3:1") (Result_cache.find c "c")

let test_clear_resets () =
  let c = Result_cache.create ~capacity:2 in
  Result_cache.add c "a" "HITS 0";
  ignore (Result_cache.find c "a");
  Result_cache.clear c;
  let hits, misses, len = Result_cache.stats c in
  Alcotest.(check (list int)) "reset" [ 0; 0; 0 ] [ hits; misses; len ]

(* Regression for the degradation work: a response that describes one
   request's luck — TIMEOUT, OK-DEGRADED, BUSY, ERR — must never be
   replayed from the cache, however it got offered to [add]. *)
let test_never_caches_partial_responses () =
  let c = Result_cache.create ~capacity:8 in
  let refused =
    [
      Protocol.timeout;
      Protocol.busy;
      Protocol.err "boom";
      Protocol.ok_degraded_ids ~failed_shards:[ 1; 3 ] [];
      "OK-DEGRADED shards=0 HITS 1 7:0.5";
      "HITS";
      (* no trailing space: not a well-formed HITS line *)
      "";
    ]
  in
  List.iteri
    (fun i r ->
      let key = Printf.sprintf "k%d" i in
      Result_cache.add c key r;
      Alcotest.(check (option string))
        (Printf.sprintf "refused %S" r)
        None (Result_cache.find c key))
    refused;
  let _, _, len = Result_cache.stats c in
  Alcotest.(check int) "nothing stored" 0 len;
  (* ... while a complete answer is stored as before. *)
  Result_cache.add c "good" "HITS 2 1:0.5 2:0.25";
  Alcotest.(check (option string))
    "complete answer cached" (Some "HITS 2 1:0.5 2:0.25")
    (Result_cache.find c "good")

(* Regression for live ingestion: a response cached before a document
   was added must never be served after the index generation bumps —
   the stale entry has to become unreachable, not merely eventually
   evicted. *)
let test_generation_invalidates () =
  let c = Result_cache.create ~capacity:8 in
  Alcotest.(check int) "starts at generation 0" 0 (Result_cache.generation c);
  Result_cache.add c "q" "HITS 1 1:0.5";
  Alcotest.(check (option string))
    "served at generation 0" (Some "HITS 1 1:0.5") (Result_cache.find c "q");
  (* An ingest bumps the generation: the pre-ingest response is gone. *)
  Result_cache.set_generation c 1;
  Alcotest.(check (option string))
    "stale pre-ingest response never served" None (Result_cache.find c "q");
  (* The fresh answer is cached under the new generation... *)
  Result_cache.add c "q" "HITS 2 1:0.5 9:0.4";
  Alcotest.(check (option string))
    "fresh answer served" (Some "HITS 2 1:0.5 9:0.4")
    (Result_cache.find c "q");
  (* ...and invalidated by the next bump in turn. *)
  Result_cache.set_generation c 2;
  Alcotest.(check (option string))
    "every bump invalidates" None (Result_cache.find c "q")

let test_generation_is_monotone () =
  let c = Result_cache.create ~capacity:8 in
  Result_cache.set_generation c 5;
  Result_cache.add c "q" "HITS 0";
  (* Swap notifications can arrive out of order; an older generation
     must not resurrect entries cached under earlier namespaces. *)
  Result_cache.set_generation c 3;
  Alcotest.(check int) "older generation ignored" 5 (Result_cache.generation c);
  Alcotest.(check (option string))
    "entry still served" (Some "HITS 0") (Result_cache.find c "q");
  Result_cache.set_generation c 6;
  Alcotest.(check (option string))
    "newer generation invalidates" None (Result_cache.find c "q")

(* A search that missed before a bump and finished after it was
   computed against the superseded index (or cluster): storing it would
   serve it as the answer of the new generation. *)
let test_add_after_bump_refused () =
  let c = Result_cache.create ~capacity:8 in
  let generation =
    match Result_cache.lookup c "q" with
    | `Miss g -> g
    | `Hit _ -> Alcotest.fail "cold cache hit"
  in
  Result_cache.set_generation c (generation + 1);
  Result_cache.add ~generation c "q" "HITS 1 1:0.5";
  Alcotest.(check (option string))
    "pre-bump answer not stored" None (Result_cache.find c "q");
  let generation =
    match Result_cache.lookup c "q" with
    | `Miss g -> g
    | `Hit _ -> Alcotest.fail "stale hit"
  in
  Result_cache.add ~generation c "q" "HITS 2 1:0.5 9:0.4";
  Alcotest.(check (option string))
    "same-generation answer stored" (Some "HITS 2 1:0.5 9:0.4")
    (Result_cache.find c "q")

let test_concurrent_access () =
  (* Hammer one cache from several domains; the test passes when no
     crash/corruption occurs and counters add up. *)
  let c = Result_cache.create ~capacity:32 in
  let per_domain = 2000 in
  let worker seed =
    Domain.spawn (fun () ->
        for i = 0 to per_domain - 1 do
          let key = Printf.sprintf "k%d" ((i + seed) mod 64) in
          match Result_cache.find c key with
          | Some _ -> ()
          | None -> Result_cache.add c key "HITS 0"
        done)
  in
  let domains = List.init 4 worker in
  List.iter Domain.join domains;
  let hits, misses, len = Result_cache.stats c in
  Alcotest.(check int) "lookups accounted" (4 * per_domain) (hits + misses);
  Alcotest.(check bool) "bounded" true (len <= 32)

let suite =
  [
    ("result_cache: counters", `Quick, test_hit_miss_counters);
    ("result_cache: eviction", `Quick, test_eviction);
    ("result_cache: clear", `Quick, test_clear_resets);
    ( "result_cache: partial responses refused",
      `Quick,
      test_never_caches_partial_responses );
    ("result_cache: generation invalidates", `Quick, test_generation_invalidates);
    ("result_cache: generation monotone", `Quick, test_generation_is_monotone);
    ("result_cache: add after bump refused", `Quick, test_add_after_bump_refused);
    ("result_cache: concurrent", `Quick, test_concurrent_access);
  ]
