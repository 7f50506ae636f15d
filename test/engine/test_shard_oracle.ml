(* Property test: scatter-gather search over a sharded index must be
   byte-identical to [Searcher.search] over the monolithic index, and
   both to the exhaustive reference ([Pj_reference]) — same hits, same
   scores, same order, same matchsets, same smaller-doc-id tie-breaks —
   for every shard count, scoring family, and k. This is the contract
   that makes `--shards` a pure performance knob. *)

open Pj_engine

let alphabet = [| "aa"; "bb"; "cc"; "dd"; "ee" |]

let corpus_gen =
  QCheck.Gen.(
    let doc = list_size (int_range 1 15) (oneofa alphabet) in
    list_size (int_range 1 24) doc)

let corpus_print docs =
  String.concat " | " (List.map (String.concat " ") docs)

let corpus_arb = QCheck.make ~print:corpus_print corpus_gen

let queries =
  [
    Pj_matching.Query.make "a" [ Pj_matching.Matcher.exact "aa" ];
    Pj_matching.Query.make "ab"
      [ Pj_matching.Matcher.exact "aa"; Pj_matching.Matcher.exact "bb" ];
    Pj_matching.Query.make "abc"
      [
        Pj_matching.Matcher.exact "aa";
        Pj_matching.Matcher.exact "bb";
        Pj_matching.Matcher.exact "cc";
      ];
  ]

let scorings =
  [
    ("win", Pj_core.Scoring.Win (Pj_core.Scoring.win_exponential ~alpha:0.3));
    ("med", Pj_core.Scoring.Med (Pj_core.Scoring.med_exponential ~alpha:0.2));
    ("max", Pj_core.Scoring.Max (Pj_core.Scoring.max_sum ~alpha:0.25));
  ]

let shard_counts = [ 1; 2; 3; 7 ]
let ks = [ 0; 1; 10; 1000 ]

let build docs =
  let corpus = Pj_index.Corpus.create () in
  List.iter
    (fun tokens ->
      ignore (Pj_index.Corpus.add_tokens corpus (Array.of_list tokens)))
    docs;
  corpus

let hits_equal (a : Searcher.hit list) (b : Searcher.hit list) =
  (* Structural equality covers doc ids, scores (bit-for-bit via [=] on
     floats computed from identical problems), order, and matchsets
     (arrays of plain {loc; score; payload} records). *)
  a = b

let pp_hits hits =
  String.concat "; "
    (List.map
       (fun (h : Searcher.hit) ->
         Printf.sprintf "%d:%.17g" h.Searcher.doc_id h.Searcher.score)
       hits)

let check_all docs =
  let corpus = build docs in
  let index = Pj_index.Inverted_index.build corpus in
  let mono = Searcher.create index in
  List.for_all
    (fun shards ->
      let sharded =
        Shard_searcher.create (Pj_index.Sharded_index.build ~shards corpus)
      in
      List.for_all
        (fun (family, scoring) ->
          List.for_all
            (fun k ->
              List.for_all
                (fun q ->
                  let want = Pj_reference.search ~k index scoring q in
                  let got_mono = Searcher.search ~k mono scoring q in
                  let got = Shard_searcher.search ~k sharded scoring q in
                  (hits_equal want got_mono && hits_equal want got)
                  ||
                  (QCheck.Test.fail_reportf
                     "S=%d %s k=%d query=%s:\nwant [%s]\nmono [%s]\ngot  [%s]"
                     shards family k q.Pj_matching.Query.label (pp_hits want)
                     (pp_hits got_mono) (pp_hits got)))
                queries)
            ks)
        scorings)
    shard_counts

let sharded_equals_monolithic =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60
       ~name:
         "Shard_searcher = Searcher = reference for all S x family x k \
          (byte-identical)"
       corpus_arb check_all)

let suite = [ sharded_equals_monolithic ]
