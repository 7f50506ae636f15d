open Pj_engine

let texts =
  [
    (* 0 *) "lenovo signs a partnership with the nba this season";
    (* 1 *) "lenovo mentioned briefly and much later a partnership of others";
    (* 2 *) "the nba expanded its partnership program with dell";
    (* 3 *) "unrelated document about gardening and weather";
    (* 4 *) "lenovo lenovo lenovo no sports words here";
    (* 5 *) "nba partnership nba partnership no company here";
  ]

let setup () =
  let corpus = Pj_index.Corpus.create () in
  List.iter (fun t -> ignore (Pj_index.Corpus.add_text corpus t)) texts;
  let idx = Pj_index.Inverted_index.build corpus in
  Searcher.create idx

let query =
  Pj_matching.Query.make "company nba partnership"
    [
      Pj_matching.Matcher.of_table ~name:"company"
        [ ("lenovo", 1.); ("dell", 0.9) ];
      Pj_matching.Matcher.exact "nba";
      Pj_matching.Matcher.exact "partnership";
    ]

let scoring = Pj_core.Scoring.Win (Pj_core.Scoring.win_exponential ~alpha:0.2)

let test_candidates () =
  let s = setup () in
  (* Docs with all three terms: 0 and 2 (doc 1 lacks nba; 4 lacks both;
     5 lacks a company). *)
  Alcotest.(check (array int)) "conjunctive" [| 0; 2 |]
    (Searcher.candidates s query)

let test_search_ranking () =
  let s = setup () in
  match Searcher.search s scoring query with
  | [ a; b ] ->
      (* Doc 0's cluster is tighter than doc 2's. *)
      Alcotest.(check int) "best doc" 0 a.Searcher.doc_id;
      Alcotest.(check int) "second doc" 2 b.Searcher.doc_id;
      Alcotest.(check bool) "ordered" true (a.Searcher.score >= b.Searcher.score)
  | hits -> Alcotest.failf "expected 2 hits, got %d" (List.length hits)

let test_search_k_limits () =
  let s = setup () in
  Alcotest.(check int) "k=1" 1 (List.length (Searcher.search ~k:1 s scoring query));
  Alcotest.(check int) "k=0" 0 (List.length (Searcher.search ~k:0 s scoring query))

let test_no_candidates () =
  let s = setup () in
  let q = Pj_matching.Query.make "impossible" [ Pj_matching.Matcher.exact "zzz" ] in
  Alcotest.(check (array int)) "no docs" [||] (Searcher.candidates s q);
  Alcotest.(check int) "no hits" 0 (List.length (Searcher.search s scoring q))

let test_search_respects_dedup () =
  (* A document where one token matches two terms at the same location:
     with dedup the invalid matchset may not be used. *)
  let corpus = Pj_index.Corpus.create () in
  ignore (Pj_index.Corpus.add_text corpus "china porcelain market");
  let idx = Pj_index.Inverted_index.build corpus in
  let s = Searcher.create idx in
  let q =
    Pj_matching.Query.make "asia porcelain"
      [
        Pj_matching.Matcher.of_table ~name:"asia" [ ("china", 1.) ];
        Pj_matching.Matcher.of_table ~name:"porcelain"
          [ ("china", 1.); ("porcelain", 0.8) ];
      ]
  in
  match Searcher.search s scoring q with
  | [ hit ] ->
      Alcotest.(check bool) "valid matchset" true
        (Pj_core.Matchset.is_valid hit.Searcher.matchset)
  | hits -> Alcotest.failf "expected 1 hit, got %d" (List.length hits)

let test_heap_eviction_order () =
  (* More candidates than k: the top-k must equal the full ranking's
     prefix. *)
  let corpus = Pj_index.Corpus.create () in
  let rng = Pj_util.Prng.create 3 in
  for _ = 0 to 30 do
    (* Random gap between the two terms controls the score. *)
    let gap = 1 + Pj_util.Prng.int rng 12 in
    let filler = List.init gap (fun i -> "zz" ^ string_of_int i) in
    let text = String.concat " " (("alpha" :: filler) @ [ "beta" ]) in
    ignore (Pj_index.Corpus.add_text corpus text)
  done;
  let idx = Pj_index.Inverted_index.build corpus in
  let s = Searcher.create idx in
  let q =
    Pj_matching.Query.make "ab"
      [ Pj_matching.Matcher.exact "alpha"; Pj_matching.Matcher.exact "beta" ]
  in
  let all = Searcher.search ~k:31 s scoring q in
  let top5 = Searcher.search ~k:5 s scoring q in
  Alcotest.(check int) "five hits" 5 (List.length top5);
  List.iteri
    (fun i hit ->
      let expected = List.nth all i in
      Alcotest.(check int)
        (Printf.sprintf "rank %d doc" i)
        expected.Searcher.doc_id hit.Searcher.doc_id)
    top5

let test_zero_matcher_query () =
  (* A query with no matchers (constructible directly as a record, even
     though Query.make forbids it) used to crash candidate generation
     with Invalid_argument ("index out of bounds"); it must mean "no
     hits". *)
  let s = setup () in
  let q = { Pj_matching.Query.label = "empty"; matchers = [||] } in
  Alcotest.(check (array int)) "no candidates" [||] (Searcher.candidates s q);
  Alcotest.(check int) "no hits" 0 (List.length (Searcher.search s scoring q))

let test_k_zero_short_circuits () =
  let s = setup () in
  (* k=0 returns [] without touching the index: a matcher with no
     finite expansions would make any candidate scan raise, so a clean
     [] proves no scan happened. *)
  let q =
    Pj_matching.Query.make "pred"
      [ Pj_matching.Matcher.predicate ~name:"any" (fun _ -> true) ]
  in
  Alcotest.(check int) "k=0 is defined" 0
    (List.length (Searcher.search ~k:0 s scoring q));
  (* k>0 on the same query still reports the missing expansions. *)
  Alcotest.check_raises "k>0 still raises"
    (Invalid_argument "Searcher: matcher any has no finite expansions")
    (fun () -> ignore (Searcher.search ~k:1 s scoring q))

let test_search_within_generous_deadline () =
  let s = setup () in
  let deadline = Pj_util.Timing.monotonic_now () +. 60. in
  match Searcher.search_within ~deadline s scoring query with
  | Error `Timeout -> Alcotest.fail "timed out with a 60s budget"
  | Ok hits ->
      let direct = Searcher.search s scoring query in
      Alcotest.(check (list int)) "same docs"
        (List.map (fun h -> h.Searcher.doc_id) direct)
        (List.map (fun h -> h.Searcher.doc_id) hits);
      List.iter2
        (fun a b ->
          Alcotest.(check (float 0.)) "same score" a.Searcher.score
            b.Searcher.score)
        direct hits

let test_search_within_expired_deadline () =
  let s = setup () in
  let deadline = Pj_util.Timing.monotonic_now () -. 1. in
  match Searcher.search_within ~deadline s scoring query with
  | Error `Timeout -> ()
  | Ok _ -> Alcotest.fail "a deadline in the past must time out"

(* Two terms matching the same locations make every branch-and-bound
   node of the duplicate handler bound at the unconstrained optimum, so
   nothing is pruned and the solver count roughly doubles with each
   extra occurrence (about 33k solves at 14, over a second unchecked).
   The deadline must hold inside that one document's solve, not only
   between candidates. *)
let test_deadline_inside_dedup () =
  let corpus = Pj_index.Corpus.create () in
  ignore
    (Pj_index.Corpus.add_tokens corpus
       (Array.init 200 (fun i ->
            if i mod 14 = 5 && i < 14 * 14 then "aa"
            else Printf.sprintf "f%d" i)));
  let s = Searcher.create (Pj_index.Inverted_index.build corpus) in
  let q =
    Pj_matching.Query.make "aa aa"
      [ Pj_matching.Matcher.exact "aa"; Pj_matching.Matcher.exact "aa" ]
  in
  let start = Pj_util.Timing.monotonic_now () in
  let result = Searcher.search_within ~deadline:(start +. 0.05) s scoring q in
  let elapsed = Pj_util.Timing.monotonic_now () -. start in
  (match result with
  | Error `Timeout -> ()
  | Ok _ -> Alcotest.fail "a shared-form query must honor its deadline");
  if elapsed >= 0.5 then
    Alcotest.failf "timed out only after %.3f s (deadline 0.05 s)" elapsed

(* A hand-built matcher may list a form twice. The searcher keeps one
   cursor per token ([Match_builder.form_tokens]), at its best score,
   so its hits are those of the deduplicated matcher and of the
   reference. The second term shares "lenovo", so some roots reuse a
   location and go through the branch-and-bound, which reloads the
   problem as match lists: co-located matches of one term there would
   be out of order. *)
let test_form_listed_twice () =
  let s = setup () in
  let twice =
    {
      Pj_matching.Matcher.name = "company";
      score_token = (fun _ -> None);
      expansions = Some [ ("lenovo", 1.); ("dell", 0.9); ("lenovo", 0.5) ];
    }
  and partner =
    Pj_matching.Matcher.of_table ~name:"partner"
      [ ("partnership", 1.); ("lenovo", 0.7) ]
  in
  let q = Pj_matching.Query.make "twice" [ twice; partner ] in
  let deduped =
    Pj_matching.Query.make "deduped"
      [
        Pj_matching.Matcher.of_table ~name:"company"
          [ ("lenovo", 1.); ("dell", 0.9) ];
        partner;
      ]
  in
  let same what a b =
    Alcotest.(check (list int)) (what ^ ": docs")
      (List.map (fun h -> h.Searcher.doc_id) a)
      (List.map (fun h -> h.Searcher.doc_id) b);
    List.iter2
      (fun x y ->
        Alcotest.(check bool) (what ^ ": score bits") true
          (Int64.bits_of_float x.Searcher.score
          = Int64.bits_of_float y.Searcher.score);
        Alcotest.(check bool) (what ^ ": matchset") true
          (Pj_core.Matchset.equal x.Searcher.matchset y.Searcher.matchset))
      a b
  in
  List.iter
    (fun scoring ->
      let hits = Searcher.search s scoring q in
      Alcotest.(check bool) "some hits" true (hits <> []);
      same "deduplicated" hits (Searcher.search s scoring deduped);
      same "reference" hits
        (Pj_reference.search ~k:10 (Searcher.index s) scoring q))
    [
      scoring;
      Pj_core.Scoring.Med (Pj_core.Scoring.med_exponential ~alpha:0.2);
      Pj_core.Scoring.Max (Pj_core.Scoring.max_sum ~alpha:0.2);
    ]

let suite =
  [
    ("searcher: deadline inside dedup", `Quick, test_deadline_inside_dedup);
    ("searcher: deadline generous", `Quick, test_search_within_generous_deadline);
    ("searcher: deadline expired", `Quick, test_search_within_expired_deadline);
    ("searcher: candidates", `Quick, test_candidates);
    ("searcher: ranking", `Quick, test_search_ranking);
    ("searcher: k limits", `Quick, test_search_k_limits);
    ("searcher: no candidates", `Quick, test_no_candidates);
    ("searcher: zero matchers", `Quick, test_zero_matcher_query);
    ("searcher: k=0 short-circuit", `Quick, test_k_zero_short_circuits);
    ("searcher: dedup always applies", `Quick, test_search_respects_dedup);
    ("searcher: heap eviction", `Quick, test_heap_eviction_order);
    ("searcher: a form listed twice", `Quick, test_form_listed_twice);
  ]
