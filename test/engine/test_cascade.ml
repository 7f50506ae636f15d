(* [Searcher.search_cascade]'s unit cases: ties that straddle
   fragments run out of order, and the [k] and deadline edge cases its
   interface promises. Random cuts in shuffled order are checked
   against the monolithic index by the shard oracle. *)

open Pj_engine

let query_a = Pj_matching.Query.make "a" [ Pj_matching.Matcher.exact "aa" ]

let query_ab =
  Pj_matching.Query.make "ab"
    [ Pj_matching.Matcher.exact "aa"; Pj_matching.Matcher.exact "bb" ]

let build docs =
  let corpus = Pj_index.Corpus.create () in
  List.iter
    (fun tokens ->
      ignore (Pj_index.Corpus.add_tokens corpus (Array.of_list tokens)))
    docs;
  corpus

(* One fragment per [counts] entry, over the next [count] documents of
   [corpus]: a [Corpus.sub] view keeps global ids and the shared
   vocabulary. *)
let fragments corpus counts =
  let pos = ref 0 in
  Array.map
    (fun len ->
      let first = !pos in
      pos := first + len;
      Searcher.create
        (Pj_index.Inverted_index.build
           (Pj_index.Corpus.sub corpus ~pos:first ~len)))
    counts

let cascade ?deadline ?accept ~k frags scoring q =
  match Searcher.search_cascade ?deadline ?accept ~k frags scoring q with
  | Ok hits -> hits
  | Error `Timeout -> Alcotest.fail "timed out without an expired deadline"

let win = Pj_core.Scoring.Win (Pj_core.Scoring.win_exponential ~alpha:0.3)

(* Six identical documents in three fragments, run last range first:
   the first fragment's k-th score ties every later candidate, and the
   smaller ids must still win the tiebreak. With the one-term query a
   document's bound is its score, so the tie reaches the prune itself. *)
let test_ties_merge_by_doc_id () =
  let docs = List.init 6 (fun _ -> [ "aa"; "bb" ]) in
  let corpus = build docs in
  let mono = Searcher.create (Pj_index.Inverted_index.build corpus) in
  let frags = fragments corpus [| 2; 2; 2 |] in
  let reversed = Array.of_list (List.rev (Array.to_list frags)) in
  List.iter
    (fun q ->
      List.iter
        (fun k ->
          let what = Printf.sprintf "%s k=%d" q.Pj_matching.Query.label k in
          let got = cascade ~k reversed win q in
          Alcotest.(check (list int))
            (what ^ " ids")
            (List.init (min k 6) Fun.id)
            (List.map (fun (h : Searcher.hit) -> h.Searcher.doc_id) got);
          Alcotest.(check bool)
            (what ^ " = mono")
            true
            (got = Searcher.search ~k mono win q))
        [ 1; 2; 3; 5; 6; 10 ])
    [ query_a; query_ab ]

let small () =
  let corpus = build [ [ "aa"; "bb" ]; [ "bb"; "aa"; "cc" ]; [ "aa"; "bb" ] ] in
  fragments corpus [| 1; 2 |]

let test_k_zero () =
  (* [k = 0] answers before any fragment runs, so not even an expired
     deadline is checked. *)
  let past = Pj_util.Timing.monotonic_now () -. 1. in
  Alcotest.(check bool)
    "Ok [] with an expired deadline" true
    (Searcher.search_cascade ~deadline:past ~k:0 (small ()) win query_ab
    = Ok [])

let test_negative_k () =
  Alcotest.check_raises "k = -1"
    (Invalid_argument "Searcher.search_cascade: negative k") (fun () ->
      ignore (Searcher.search_cascade ~k:(-1) (small ()) win query_ab))

let test_no_fragments () =
  Alcotest.(check bool)
    "Ok []" true
    (Searcher.search_cascade ~k:10 [||] win query_ab = Ok [])

let test_expired_deadline () =
  let past = Pj_util.Timing.monotonic_now () -. 1. in
  Alcotest.(check bool)
    "Error `Timeout" true
    (Searcher.search_cascade ~deadline:past ~k:10 (small ()) win query_ab
    = Error `Timeout)

(* The first fragment holds one candidate, and [accept] spends the
   budget on it; the second fragment then starts past the deadline. The
   whole search times out: the first fragment's hit is not returned as
   a partial answer. *)
let test_later_fragment_expires () =
  let frags = small () in
  let deadline = Pj_util.Timing.monotonic_now () +. 0.02 in
  let accept id =
    if id = 0 then
      while Pj_util.Timing.monotonic_now () <= deadline do
        ()
      done;
    true
  in
  Alcotest.(check bool)
    "Error `Timeout" true
    (Searcher.search_cascade ~deadline ~accept ~k:10 frags win query_ab
    = Error `Timeout);
  Alcotest.(check int)
    "same fragments answer without a deadline" 3
    (List.length (cascade ~accept:(fun _ -> true) ~k:10 frags win query_ab))

let suite =
  [
    Alcotest.test_case "ties across fragments merge by doc id" `Quick
      test_ties_merge_by_doc_id;
    Alcotest.test_case "k = 0 touches no fragment" `Quick test_k_zero;
    Alcotest.test_case "negative k raises" `Quick test_negative_k;
    Alcotest.test_case "no fragments: empty" `Quick test_no_fragments;
    Alcotest.test_case "expired deadline times out" `Quick
      test_expired_deadline;
    Alcotest.test_case "a later fragment expiring times out" `Quick
      test_later_fragment_expires;
  ]
