(* [Searcher.search_fragment ?accept]: a rejected document must behave
   exactly as if its postings were absent — same hits, same scores,
   same matchsets as a from-scratch index that never contained it.
   This is the primitive the live index's tombstones stand on. *)

open Pj_engine

let scoring = Pj_core.Scoring.Win (Pj_core.Scoring.win_exponential ~alpha:0.3)

let query =
  Pj_matching.Query.make "ab"
    [
      Pj_matching.Matcher.of_table ~name:"t1" [ ("aa", 1.0); ("ab", 0.4) ];
      Pj_matching.Matcher.of_table ~name:"t2" [ ("bb", 0.9); ("ba", 0.3) ];
    ]

let docs =
  [
    [| "aa"; "bb"; "cc" |];
    [| "aa"; "cc"; "cc"; "bb" |];
    [| "ab"; "ba" |];
    [| "aa"; "bb" |];
    [| "cc"; "aa"; "ab"; "bb" |];
  ]

(* Shared vocabulary order so token ids (match payloads) line up
   between the full index and the one missing [rejected]. *)
let index_over ?(rejected = []) () =
  let corpus = Pj_index.Corpus.create () in
  let vocab = Pj_index.Corpus.vocab corpus in
  List.iter
    (fun d -> Array.iter (fun w -> ignore (Pj_text.Vocab.intern vocab w)) d)
    docs;
  List.iteri
    (fun id d ->
      ignore
        (Pj_index.Corpus.add_tokens corpus
           (if List.mem id rejected then [||] else d)))
    docs;
  Pj_index.Inverted_index.build corpus

let fragment_hits ?accept searcher ~k =
  match Searcher.search_fragment ?accept ~k searcher scoring query with
  | Ok hits -> hits
  | Error `Timeout -> Alcotest.fail "no deadline was given"

(* The reference searches an index that never held the rejected
   documents. *)
let test_accept_equals_absence () =
  let full = Searcher.create (index_over ()) in
  List.iter
    (fun rejected ->
      let without = index_over ~rejected () in
      List.iter
        (fun k ->
          let accept id = not (List.mem id rejected) in
          Alcotest.(check bool)
            (Printf.sprintf "rejected=[%s] k=%d"
               (String.concat "," (List.map string_of_int rejected))
               k)
            true
            (fragment_hits ~accept full ~k
            = Pj_reference.search ~k without scoring query))
        [ 1; 3; 10 ])
    [ [ 0 ]; [ 1 ]; [ 0; 3 ]; [ 0; 1; 3; 4 ] ]

let test_accept_none_is_identity () =
  let full = Searcher.create (index_over ()) in
  Alcotest.(check bool) "no accept = accept everything" true
    (fragment_hits full ~k:10
    = fragment_hits ~accept:(fun _ -> true) full ~k:10)

let test_accept_nothing () =
  let full = Searcher.create (index_over ()) in
  Alcotest.(check int) "reject all" 0
    (List.length (fragment_hits ~accept:(fun _ -> false) full ~k:10))

let suite =
  [
    Alcotest.test_case "accept filter = document absence" `Quick
      test_accept_equals_absence;
    Alcotest.test_case "accept defaults to everything" `Quick
      test_accept_none_is_identity;
    Alcotest.test_case "accept nothing" `Quick test_accept_nothing;
  ]
