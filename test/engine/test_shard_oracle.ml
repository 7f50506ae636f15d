(* Property test: the fragment cascade over a sharded index must be
   byte-identical to [Searcher.search] over the monolithic index, and
   both to the exhaustive reference ([Pj_reference]) — same hits, same
   scores, same order, same matchsets, same smaller-doc-id tie-breaks —
   for every shard count, scoring family, and k. This is the contract
   of [Searcher.search_cascade], which the live index also runs over
   its segments. Besides the balanced layouts, each case cuts the
   corpus at random (ranges may be empty) and runs the fragments in a
   shuffled order: there the fragment that sets the threshold may hold
   the larger doc ids, which is where a non-strict prune would drop a
   tied, smaller-id winner. *)

open Pj_engine

let alphabet = [| "aa"; "bb"; "cc"; "dd"; "ee" |]

let corpus_gen =
  QCheck.Gen.(
    let doc = list_size (int_range 1 15) (oneofa alphabet) in
    list_size (int_range 1 24) doc)

let corpus_print (docs, seed) =
  Printf.sprintf "seed=%d docs=%s" seed
    (String.concat " | " (List.map (String.concat " ") docs))

let corpus_arb =
  QCheck.make ~print:corpus_print
    QCheck.Gen.(pair corpus_gen (int_bound 1_000_000))

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

(* Random cut of [n] documents into 1..5 contiguous ranges, some
   possibly empty, one [Searcher] per range over a [Corpus.sub] view
   (global ids, shared vocabulary), in shuffled order. *)
let shuffled_fragments rng corpus =
  let n = Pj_index.Corpus.size corpus in
  let parts = Pj_util.Prng.int_in rng 1 5 in
  let cuts = Array.init (parts - 1) (fun _ -> Pj_util.Prng.int_in rng 0 n) in
  Array.sort compare cuts;
  let bounds = Array.concat [ [| 0 |]; cuts; [| n |] ] in
  let frags =
    Array.init parts (fun i ->
        Searcher.create
          (Pj_index.Inverted_index.build
             (Pj_index.Corpus.sub corpus ~pos:bounds.(i)
                ~len:(bounds.(i + 1) - bounds.(i)))))
  in
  Pj_util.Prng.shuffle rng frags;
  (Printf.sprintf "cut %s shuffled"
     (String.concat "," (Array.to_list (Array.map string_of_int bounds))),
   frags)

let check_all (docs, seed) =
  let corpus = build docs in
  let index = Pj_index.Inverted_index.build corpus in
  let mono = Searcher.create index in
  let layouts =
    List.map
      (fun shards ->
        let sharded =
          Shard_searcher.create (Pj_reference.sharded ~shards corpus)
        in
        ( Printf.sprintf "S=%d" shards,
          fun ~k scoring q -> Shard_searcher.search ~k sharded scoring q ))
      shard_counts
    @
    let name, frags = shuffled_fragments (Pj_util.Prng.create seed) corpus in
    [
      ( name,
        fun ~k scoring q ->
          match Searcher.search_cascade ~k frags scoring q with
          | Ok hits -> hits
          | Error `Timeout -> Alcotest.fail "timed out without a deadline" );
    ]
  in
  List.for_all
    (fun (layout, search) ->
      List.for_all
        (fun (family, scoring) ->
          List.for_all
            (fun k ->
              List.for_all
                (fun q ->
                  let want = Pj_reference.search ~k index scoring q in
                  let got_mono = Searcher.search ~k mono scoring q in
                  let got = search ~k scoring q in
                  (hits_equal want got_mono && hits_equal want got)
                  ||
                  (QCheck.Test.fail_reportf
                     "%s %s k=%d query=%s:\nwant [%s]\nmono [%s]\ngot  [%s]"
                     layout family k q.Pj_matching.Query.label (pp_hits want)
                     (pp_hits got_mono) (pp_hits got)))
                queries)
            ks)
        scorings)
    layouts

let sharded_equals_monolithic =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60
       ~name:
         "Shard_searcher = Searcher = reference for all S x family x k \
          (byte-identical)"
       corpus_arb check_all)

let suite = [ sharded_equals_monolithic ]
