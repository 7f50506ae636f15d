(* The DAAT cursor searcher must return byte-identical hit lists (doc
   ids, scores, order) to the set-intersection reference searcher
   ([Pj_reference]). Exercised over randomized corpora, all three
   scoring families, multi-form matchers (so the per-term cursor is a
   genuine union), and k in {0, 1, 10, 1000}. *)

open Pj_engine

(* --- randomized corpora and queries ------------------------------------ *)

let vocab =
  [| "aa"; "bb"; "cc"; "dd"; "ee"; "x0"; "x1"; "x2"; "x3"; "x4"; "x5" |]

let random_corpus rng =
  let corpus = Pj_index.Corpus.create () in
  let n_docs = 1 + Pj_util.Prng.int rng 25 in
  for _ = 1 to n_docs do
    let len = 1 + Pj_util.Prng.int rng 18 in
    let tokens = Array.init len (fun _ -> Pj_util.Prng.choose rng vocab) in
    ignore (Pj_index.Corpus.add_tokens corpus tokens)
  done;
  corpus

(* Multi-form tables make each term cursor a union of several posting
   lists with distinct scores; the third query drops to two terms to
   vary the intersection arity. *)
let queries =
  [
    Pj_matching.Query.make "three terms"
      [
        Pj_matching.Matcher.of_table ~name:"t1" [ ("aa", 1.); ("bb", 0.6) ];
        Pj_matching.Matcher.of_table ~name:"t2" [ ("cc", 0.9); ("dd", 0.5) ];
        Pj_matching.Matcher.exact "ee";
      ];
    Pj_matching.Query.make "two terms"
      [
        Pj_matching.Matcher.of_table ~name:"t1"
          [ ("aa", 1.); ("bb", 0.6); ("ee", 0.3) ];
        Pj_matching.Matcher.of_table ~name:"t2" [ ("cc", 0.9); ("dd", 0.9) ];
      ];
  ]

let scorings =
  [
    Pj_core.Scoring.Win (Pj_core.Scoring.win_exponential ~alpha:0.2);
    Pj_core.Scoring.Med (Pj_core.Scoring.med_exponential ~alpha:0.2);
    Pj_core.Scoring.Max (Pj_core.Scoring.max_sum ~alpha:0.2);
  ]

let ks = [ 0; 1; 10; 1000 ]

let hit_repr (h : Searcher.hit) = (h.Searcher.doc_id, h.Searcher.score)

let test_daat_equals_naive () =
  let rng = Pj_util.Prng.create 71 in
  for trial = 1 to 60 do
    let corpus = random_corpus rng in
    let idx = Pj_index.Inverted_index.build corpus in
    let s = Searcher.create idx in
    List.iter
      (fun q ->
        List.iter
          (fun scoring ->
            List.iter
              (fun k ->
                let expected =
                  List.map hit_repr (Pj_reference.search ~k idx scoring q)
                in
                let got = List.map hit_repr (Searcher.search ~k s scoring q) in
                (* Scores stem from identical Best_join.solve calls, so
                   equality is exact, not approximate. *)
                if got <> expected then
                  Alcotest.failf "trial %d %s %s k=%d: DAAT differs from reference"
                    trial q.Pj_matching.Query.label
                    (Pj_core.Scoring.name scoring)
                    k)
              ks)
          scorings)
      queries
  done

(* The DAAT candidate stream must equal the set intersection wherever
   the latter is defined (at least one matcher). *)
let test_candidates_equal () =
  let rng = Pj_util.Prng.create 97 in
  for _ = 1 to 60 do
    let corpus = random_corpus rng in
    let idx = Pj_index.Inverted_index.build corpus in
    let s = Searcher.create idx in
    List.iter
      (fun q ->
        Alcotest.(check (array int))
          "candidates" (Pj_reference.candidates idx q)
          (Searcher.candidates s q))
      queries
  done

let suite =
  [
    ("daat = naive searcher, all families and ks", `Quick, test_daat_equals_naive);
    ("daat candidates = set intersection", `Quick, test_candidates_equal);
  ]
