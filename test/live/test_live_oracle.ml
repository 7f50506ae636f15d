(* Randomized equivalence oracle: an arbitrary interleaving of
   add / delete / flush / merge / search against the live index must
   yield exactly the hits (ids, scores, and matchsets, structurally
   equal) of a from-scratch [Inverted_index.build] over the surviving
   documents.

   The oracle corpus reproduces the live index's token ids by
   pre-interning every word of every document (deleted ones included)
   in original order, then adding deleted documents as empty token
   arrays — which keeps the doc ids aligned while contributing no
   postings, exactly the semantics of a tombstone.

   Each seed is printed before it runs; to replay one, set
   $LIVE_SEED. *)

open Pj_live
module IntSet = Set.Make (Int)

let alphabet = [| "aa"; "bb"; "ab"; "ba"; "cc"; "dd" |]

(* Degraded expansion forms exercise max-score pruning across the
   segment/memtable fragments, not just exact intersection. *)
let query =
  Pj_matching.Query.make "oracle"
    [
      Pj_matching.Matcher.of_table ~name:"t1" [ ("aa", 1.0); ("ab", 0.4) ];
      Pj_matching.Matcher.of_table ~name:"t2" [ ("bb", 0.9); ("ba", 0.3) ];
    ]

let scorings =
  [
    Pj_core.Scoring.Win (Pj_core.Scoring.win_exponential ~alpha:0.25);
    Pj_core.Scoring.Med (Pj_core.Scoring.med_exponential ~alpha:0.25);
    Pj_core.Scoring.Max (Pj_core.Scoring.max_sum ~alpha:0.25);
  ]

let config =
  {
    Live_index.default_config with
    Live_index.memtable_capacity = 4;
    merge_threshold = 2;
    background_merge = false;
  }

let random_doc rng =
  Array.init
    (1 + Pj_util.Prng.int rng 12)
    (fun _ -> alphabet.(Pj_util.Prng.int rng (Array.length alphabet)))

(* From-scratch index over the surviving documents, searched by the
   shared reference ([Pj_reference]). [docs] is every document ever
   added, in id order. *)
let scratch_index docs deleted =
  let corpus = Pj_index.Corpus.create () in
  let vocab = Pj_index.Corpus.vocab corpus in
  List.iter
    (fun doc -> Array.iter (fun w -> ignore (Pj_text.Vocab.intern vocab w)) doc)
    docs;
  List.iteri
    (fun id doc ->
      ignore
        (Pj_index.Corpus.add_tokens corpus
           (if IntSet.mem id deleted then [||] else doc)))
    docs;
  Pj_index.Inverted_index.build corpus

let hit_line (h : Pj_engine.Searcher.hit) =
  Printf.sprintf "doc %d score %.17g matches %d" h.Pj_engine.Searcher.doc_id
    h.Pj_engine.Searcher.score
    (Array.length h.Pj_engine.Searcher.matchset)

(* The live search runs block-max skips over every snapshot shape
   (memtable prefix cursors, sealed and spliced segments, tombstone
   accept filters). *)
let check_equal ~ctx live docs deleted =
  let scratch = scratch_index (List.rev docs) deleted in
  List.iter
    (fun scoring ->
      List.iter
        (fun k ->
          let want = Pj_reference.search ~k scratch scoring query in
          let got = Live_index.search ~k live scoring query in
          if got <> want then
            Alcotest.failf "%s: %s k=%d\nlive:    %s\nscratch: %s" ctx
              (Pj_core.Scoring.name scoring)
              k
              (String.concat "; " (List.map hit_line got))
              (String.concat "; " (List.map hit_line want)))
        [ 1; 10; 1000 ])
    scorings

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "pj_live_oracle_%d_%d" (Unix.getpid ()) !counter)
    in
    if Sys.file_exists dir then
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
    dir

(* [persistent] runs the same op sequence against an index with a
   directory: every flush and merge writes a segment file and a
   manifest, and the final state is reopened from them and checked
   again — the recovered = acknowledged arm of the oracle. [heavy] skews the
   op mix toward deletions, so snapshots are tombstone-heavy: most
   postings the cursors walk belong to dead documents, stressing the
   interaction of block-max skips with the [accept] filter (a skipped
   region must never resurrect a tombstoned doc, a surviving doc must
   never be lost to a bound computed over mostly-dead blocks). *)
let run_seed ?(persistent = false) ?(heavy = false) seed =
  Printf.printf "live oracle seed %d (replay: LIVE_SEED=%d)%s%s\n%!" seed seed
    (if persistent then " [persistent]" else "")
    (if heavy then " [tombstone-heavy]" else "");
  let rng = Pj_util.Prng.create seed in
  let dir = if persistent then Some (fresh_dir ()) else None in
  let live =
    match dir with
    | Some dir -> Live_index.open_dir ~config dir
    | None -> Live_index.create ~config ()
  in
  let docs = ref [] (* reverse id order *) and total = ref 0 in
  let deleted = ref IntSet.empty in
  let add_cut = if heavy then 22 else 40
  and batch_cut = if heavy then 32 else 55
  and delete_cut = if heavy then 72 else 70 in
  for op = 1 to 150 do
    let roll = Pj_util.Prng.int rng 100 in
    if roll < add_cut || !total = 0 then begin
      let doc = random_doc rng in
      let id = Live_index.add live doc in
      Alcotest.(check int) "dense ids" !total id;
      docs := doc :: !docs;
      incr total
    end
    else if roll < batch_cut then begin
      (* Batch sizes up to 9 cross the capacity-4 boundary, so sealing
         mid-batch is exercised against the same oracle. *)
      let batch = List.init (1 + Pj_util.Prng.int rng 9) (fun _ -> random_doc rng) in
      let first = Live_index.add_batch live batch in
      Alcotest.(check int) "dense batch ids" !total first;
      List.iter
        (fun doc ->
          docs := doc :: !docs;
          incr total)
        batch
    end
    else if roll < delete_cut then begin
      let id = Pj_util.Prng.int rng !total in
      let expect_ok = not (IntSet.mem id !deleted) in
      (match Live_index.delete live id with
      | Ok () ->
          if not expect_ok then
            Alcotest.failf "seed %d: delete %d succeeded twice" seed id;
          deleted := IntSet.add id !deleted
      | Error `Not_found ->
          if expect_ok then
            Alcotest.failf "seed %d: delete %d of a live doc failed" seed id)
    end
    else if roll < 80 then ignore (Live_index.flush live)
    else if roll < 90 then ignore (Live_index.merge_now live)
    else
      check_equal
        ~ctx:(Printf.sprintf "seed %d op %d (mid-run)" seed op)
        live !docs !deleted
  done;
  ignore (Live_index.flush live);
  Live_index.quiesce live;
  check_equal ~ctx:(Printf.sprintf "seed %d (quiesced)" seed) live !docs
    !deleted;
  (* The accounting invariant must hold here too. *)
  let s = Live_index.stats live in
  Alcotest.(check int) "stats.docs" (!total - IntSet.cardinal !deleted)
    s.Live_index.docs;
  Alcotest.(check int) "stats.total_docs" !total s.Live_index.total_docs;
  Alcotest.(check int) "memtable flushed" 0 s.Live_index.memtable_docs;
  Live_index.close live;
  (* The persistent arm's sealed segments are PJX4 files placed by the
     manifest: a reopen recovers every document from them and serves
     the same hits. *)
  Option.iter
    (fun dir ->
      let reopened = Live_index.open_dir ~config dir in
      check_equal ~ctx:(Printf.sprintf "seed %d (recovered)" seed) reopened
        !docs !deleted;
      Live_index.close reopened)
    dir

let seeds () =
  match Sys.getenv_opt "LIVE_SEED" with
  | Some s -> [ int_of_string s ]
  | None -> [ 11; 42; 2024 ]

let test_oracle () = List.iter run_seed (seeds ())
let test_oracle_persistent () =
  List.iter (run_seed ~persistent:true) (seeds ())

let test_oracle_heavy () =
  List.iter (run_seed ~heavy:true) (seeds ());
  List.iter (run_seed ~persistent:true ~heavy:true) (seeds ())

let suite =
  [
    Alcotest.test_case "random ops = from-scratch build" `Quick test_oracle;
    Alcotest.test_case "random ops = from-scratch build (persistent)" `Quick
      test_oracle_persistent;
    Alcotest.test_case "tombstone-heavy ops = from-scratch build" `Quick
      test_oracle_heavy;
  ]
