(* Block-max candidate generation must be lossless: for every corpus
   layout, scoring family, and k, [search] returns hits byte-identical
   (doc ids, float score bits, matchsets) to the exhaustive reference
   ([Pj_reference]) — monolithic and sharded alike.

   Corpora are big enough (hundreds of documents) that posting lists
   span several 128-posting blocks, so next-shallow region skips and
   essential-form demotion genuinely fire. Three layouts stress
   different skip patterns:

   - [Uniform]: weak (low-score, dense) and strong (high-score, sparse)
     forms spread evenly — the weak forms should stop driving the
     alignment everywhere once the heap fills.
   - [Quality_ordered]: strong forms concentrated in low doc ids, as
     after a quality-ordering doc-id assignment — the tail of the scan
     is all-skippable regions.
   - [Impact_skewed]: heavy term repetition in a few documents: long
     positions lists, with the same form scores as everywhere else.

   Each seed is printed before it runs; to replay one, set
   $BLOCKMAX_SEED. *)

open Pj_engine

type layout = Uniform | Quality_ordered | Impact_skewed

let layout_name = function
  | Uniform -> "uniform"
  | Quality_ordered -> "quality-ordered"
  | Impact_skewed -> "impact-skewed"

(* Strong forms are sparse and high-score, weak forms dense and
   low-score; the stopwords appear in (almost) every document. *)
let strong = [| "s1"; "s2"; "s3" |]
let weak = [| "w1"; "w2"; "w3" |]
let stop = [| "the"; "of" |]

let random_doc rng layout ~doc ~n_docs =
  let out = Pj_util.Vec.create () in
  let emit w = Pj_util.Vec.push out w in
  Array.iter emit stop;
  let strong_p =
    match layout with
    | Uniform | Impact_skewed -> 0.05
    | Quality_ordered ->
        (* Decaying with doc id: the early range is strong-dense, the
           tail nearly strong-free. *)
        0.25 *. (1. -. (float_of_int doc /. float_of_int n_docs))
  in
  Array.iter
    (fun w ->
      if Pj_util.Prng.float rng 1. < strong_p then begin
        emit w;
        if layout = Impact_skewed && Pj_util.Prng.int rng 4 = 0 then
          (* tf spikes: repeated occurrences change no form score *)
          for _ = 1 to 1 + Pj_util.Prng.int rng 6 do
            emit w
          done
      end)
    strong;
  Array.iter
    (fun w -> if Pj_util.Prng.float rng 1. < 0.85 then emit w)
    weak;
  let a = Pj_util.Vec.to_array out in
  Pj_util.Prng.shuffle rng a;
  a

let build_corpus rng layout ~n_docs =
  let corpus = Pj_index.Corpus.create () in
  for doc = 0 to n_docs - 1 do
    ignore
      (Pj_index.Corpus.add_tokens corpus (random_doc rng layout ~doc ~n_docs))
  done;
  corpus

(* Mixed strong/weak expansion tables, so each term bank holds cursors
   whose scores differ by enough for essential-form demotion to bite;
   plus the all-stopword query, whose lists are one dense block run
   with nothing skippable — the degenerate case the in-memory block
   bounds used to get wrong. *)
let queries =
  [
    Pj_matching.Query.make "mixed"
      [
        Pj_matching.Matcher.of_table ~name:"t1" [ ("s1", 1.0); ("w1", 0.35) ];
        Pj_matching.Matcher.of_table ~name:"t2"
          [ ("s2", 0.9); ("w2", 0.3); ("w3", 0.25) ];
      ];
    Pj_matching.Query.make "strong-weak-stop"
      [
        Pj_matching.Matcher.of_table ~name:"t1" [ ("s3", 0.8); ("w1", 0.3) ];
        Pj_matching.Matcher.exact ~score:0.2 "the";
      ];
    Pj_matching.Query.make "all-stopword"
      [
        Pj_matching.Matcher.exact ~score:0.5 "the";
        Pj_matching.Matcher.exact ~score:0.4 "of";
      ];
  ]

let scorings =
  [
    Pj_core.Scoring.Win (Pj_core.Scoring.win_exponential ~alpha:0.2);
    Pj_core.Scoring.Med (Pj_core.Scoring.med_exponential ~alpha:0.2);
    Pj_core.Scoring.Max (Pj_core.Scoring.max_sum ~alpha:0.2);
  ]

(* 100_000 exceeds every corpus size: the k > corpus arm, where the
   heap never fills and only the shared-threshold prunes could fire. *)
let ks = [ 1; 3; 10; 100_000 ]

let hit_equal (a : Searcher.hit) (b : Searcher.hit) =
  a.Searcher.doc_id = b.Searcher.doc_id
  && Int64.equal
       (Int64.bits_of_float a.Searcher.score)
       (Int64.bits_of_float b.Searcher.score)
  && a.Searcher.matchset = b.Searcher.matchset

let hits_equal a b = List.length a = List.length b && List.for_all2 hit_equal a b

let pp_hits hits =
  String.concat ","
    (List.map
       (fun (h : Searcher.hit) ->
         Printf.sprintf "%d:%.17g" h.Searcher.doc_id h.Searcher.score)
       hits)

let check_layout seed layout =
  let rng = Pj_util.Prng.create seed in
  let n_docs = 350 + Pj_util.Prng.int rng 300 in
  let corpus = build_corpus rng layout ~n_docs in
  let index = Pj_index.Inverted_index.build corpus in
  let searcher = Searcher.create index in
  let sharded =
    Shard_searcher.create (Pj_reference.sharded ~shards:3 corpus)
  in
  List.iter
    (fun q ->
      List.iter
        (fun scoring ->
          List.iter
            (fun k ->
              let want = Pj_reference.search ~k index scoring q in
              let fail what got =
                Alcotest.failf
                  "seed %d %s %s %s k=%d: %s differs\n\
                   got:       %s\n\
                   reference: %s"
                  seed (layout_name layout) q.Pj_matching.Query.label
                  (Pj_core.Scoring.name scoring)
                  k what (pp_hits got) (pp_hits want)
              in
              let got = Searcher.search ~k searcher scoring q in
              if not (hits_equal got want) then fail "blockmax" got;
              let got_sharded = Shard_searcher.search ~k sharded scoring q in
              if not (hits_equal got_sharded want) then
                fail "sharded blockmax" got_sharded)
            ks)
        scorings)
    queries

let seeds () =
  match Sys.getenv_opt "BLOCKMAX_SEED" with
  | Some s -> [ int_of_string s ]
  | None -> [ 7; 1234 ]

let run_seed seed =
  Printf.printf "blockmax oracle seed %d (replay: BLOCKMAX_SEED=%d)\n%!" seed
    seed;
  List.iter (check_layout seed) [ Uniform; Quality_ordered; Impact_skewed ]

let test_oracle () = List.iter run_seed (seeds ())

(* --- deadline regression (satellite of the block-max change) ----------- *)

(* A deadline already in the past must time out even when every
   candidate would be region-skipped: the skip loop itself checks the
   clock, so the overrun stays bounded by one round instead of one full
   traversal of a long posting list. *)
let test_deadline_in_skip_loop () =
  let corpus = Pj_index.Corpus.create () in
  (* One long conjunction: every document matches both terms, with a
     high-score rarity at the very end so pruning cannot stop early on
     its own. *)
  for doc = 0 to 4_999 do
    let toks = if doc >= 4_998 then [| "aa"; "bb"; "zz" |] else [| "aa"; "bb" |] in
    ignore (Pj_index.Corpus.add_tokens corpus toks)
  done;
  let searcher = Searcher.create (Pj_index.Inverted_index.build corpus) in
  let q =
    Pj_matching.Query.make "long"
      [
        Pj_matching.Matcher.of_table ~name:"t1" [ ("zz", 1.0); ("aa", 0.01) ];
        Pj_matching.Matcher.exact ~score:0.5 "bb";
      ]
  in
  let scoring = Pj_core.Scoring.Win (Pj_core.Scoring.win_exponential ~alpha:0.2) in
  match
    Searcher.search_within ~k:1
      ~deadline:(Pj_util.Timing.monotonic_now () -. 1e-6)
      searcher scoring q
  with
  | Error `Timeout -> ()
  | Ok _ -> Alcotest.fail "expired deadline did not time out"

let suite =
  [
    ( "blockmax = reference, all layouts/families/ks",
      `Quick,
      test_oracle );
    ("expired deadline times out in the skip loop", `Quick, test_deadline_in_skip_loop);
  ]
