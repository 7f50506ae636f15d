(* The mmap-backed v4 reader against the in-memory index: identical
   structure, identical search results (hits and matchsets), plus
   corruption handling and crash-safe publication. *)

open Pj_ondisk

let temp_path () = Filename.temp_file "proxjoin_ondisk" ".pjx4"

let with_temp f =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists (path ^ ".tmp") then Sys.remove (path ^ ".tmp"))
    (fun () -> f path)

let alphabet = [| "aa"; "bb"; "cc"; "dd"; "ee" |]

let corpus_of docs =
  let corpus = Pj_index.Corpus.create () in
  List.iter
    (fun tokens ->
      ignore (Pj_index.Corpus.add_tokens corpus (Array.of_list tokens)))
    docs;
  corpus

let corpus_gen =
  QCheck.Gen.(
    let doc = list_size (int_range 0 12) (oneofa alphabet) in
    list_size (int_range 1 12) doc)

let corpus_print docs =
  String.concat " | " (List.map (String.concat " ") docs)

let corpus_arb = QCheck.make ~print:corpus_print corpus_gen

(* Two terms, one with expansions — exercises multi-form term cursors
   and matchset payloads. *)
let query =
  Pj_matching.Query.make "q"
    [
      Pj_matching.Matcher.exact ~score:0.9 "aa";
      Pj_matching.Matcher.of_table ~name:"b-or-c" [ ("bb", 0.7); ("cc", 0.4) ];
    ]

let families =
  [
    ("win", Pj_core.Scoring.Win (Pj_core.Scoring.win_exponential ~alpha:0.3));
    ("med", Pj_core.Scoring.Med (Pj_core.Scoring.med_exponential ~alpha:0.3));
    ("max", Pj_core.Scoring.Max (Pj_core.Scoring.max_sum ~alpha:0.3));
  ]

let hit_equal (a : Pj_engine.Searcher.hit) (b : Pj_engine.Searcher.hit) =
  (* Byte-identical: same doc, same float score bits, same matchset
     (locations, scores, payloads). *)
  a.Pj_engine.Searcher.doc_id = b.Pj_engine.Searcher.doc_id
  && Int64.equal
       (Int64.bits_of_float a.Pj_engine.Searcher.score)
       (Int64.bits_of_float b.Pj_engine.Searcher.score)
  && a.Pj_engine.Searcher.matchset = b.Pj_engine.Searcher.matchset

let hits_equal a b = List.length a = List.length b && List.for_all2 hit_equal a b

let pp_hits hits =
  String.concat ","
    (List.map
       (fun h ->
         Printf.sprintf "%d:%.17g" h.Pj_engine.Searcher.doc_id
           h.Pj_engine.Searcher.score)
       hits)

(* The full acceptance matrix for one corpus: every scoring family ×
   k ∈ {1, 10, 1000}, on the monolithic and the sharded search paths,
   each against the exhaustive in-memory reference ([Pj_reference]) —
   so the matrix doubles as the on-disk blockmax-losslessness oracle.
   Returns an error description or None. *)
let compare_all_searches ~mem_index ~mapped =
  let mem_searcher = Pj_engine.Searcher.create mem_index in
  let disk_searcher = Pj_engine.Searcher.create (Mapped_index.index mapped) in
  let n = Pj_index.Corpus.size (Pj_index.Inverted_index.corpus mem_index) in
  let shards = Stdlib.max 1 (Stdlib.min 3 n) in
  let mem_sharded =
    Pj_engine.Shard_searcher.create
      (Pj_reference.sharded ~shards (Pj_index.Inverted_index.corpus mem_index))
  in
  (* The persisted layout, each shard a range view of the one mapping. *)
  let disk_sharded =
    Pj_engine.Shard_searcher.create
      (Pj_index.Sharded_index.of_prebuilt (Mapped_index.corpus mapped)
         ~counts:(Mapped_index.counts mapped)
         ~shard_of:(fun _ ~pos ~len ->
           Mapped_index.shard_index mapped ~pos ~len))
  in
  let failure = ref None in
  List.iter
    (fun (fname, scoring) ->
      List.iter
        (fun k ->
          let want = Pj_reference.search ~k mem_index scoring query in
          let expect leg got =
            if not (hits_equal want got) then
              failure :=
                Some
                  (Printf.sprintf "%s k=%d: reference %s / %s %s" fname k
                     (pp_hits want) leg (pp_hits got))
          in
          expect "mem" (Pj_engine.Searcher.search ~k mem_searcher scoring query);
          expect "mmap"
            (Pj_engine.Searcher.search ~k disk_searcher scoring query);
          expect "mmap sharded"
            (Pj_engine.Shard_searcher.search ~k disk_sharded scoring query);
          expect "mem sharded"
            (Pj_engine.Shard_searcher.search ~k mem_sharded scoring query))
        [ 1; 10; 1000 ])
    families;
  !failure

(* A deliberately uneven 3-way layout when there are enough docs. *)
let shard_layout corpus =
  let n = Pj_index.Corpus.size corpus in
  if n < 3 then [| n |]
  else [| 1; (n - 1) / 2; n - 1 - ((n - 1) / 2) |]

let search_matrix_equal =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60
       ~name:"mmap search = reference search (families × k × shards)"
       corpus_arb
       (fun docs ->
         let corpus = corpus_of docs in
         let mem_index = Pj_index.Inverted_index.build corpus in
         with_temp (fun path ->
             Writer.write ~counts:(shard_layout corpus) mem_index path;
             let mapped = Mapped_index.open_file path in
             match compare_all_searches ~mem_index ~mapped with
             | None -> true
             | Some msg -> QCheck.Test.fail_report msg)))

(* --- structural equivalence -------------------------------------------- *)

let sample_docs =
  [
    [ "aa"; "bb"; "cc"; "aa" ];
    [];
    [ "dd"; "dd"; "dd"; "dd"; "dd" ];
    [ "ee"; "aa" ];
    [ "bb" ];
    [ "cc"; "cc"; "aa"; "bb"; "ee"; "ee"; "ee" ];
  ]

let test_structure_round_trip () =
  let corpus = corpus_of sample_docs in
  let idx = Pj_index.Inverted_index.build corpus in
  with_temp (fun path ->
      Writer.write idx path;
      let mapped = Mapped_index.open_file path in
      let midx = Mapped_index.index mapped in
      let vocab = Pj_index.Corpus.vocab corpus in
      let mcorpus = Mapped_index.corpus mapped in
      Alcotest.(check int) "corpus size" (Pj_index.Corpus.size corpus)
        (Pj_index.Corpus.size mcorpus);
      Alcotest.(check int) "total tokens"
        (Pj_index.Corpus.total_tokens corpus)
        (Pj_index.Corpus.total_tokens mcorpus);
      for i = 0 to Pj_index.Corpus.size corpus - 1 do
        let a = Pj_index.Corpus.document corpus i
        and b = Pj_index.Corpus.document mcorpus i in
        Alcotest.(check int) "doc id" a.Pj_text.Document.id b.Pj_text.Document.id;
        Alcotest.(check (array int)) "doc tokens" a.Pj_text.Document.tokens
          b.Pj_text.Document.tokens
      done;
      for tok = 0 to Pj_text.Vocab.size vocab - 1 do
        let w = Pj_text.Vocab.word vocab tok in
        Alcotest.(check int) ("df " ^ w)
          (Pj_index.Inverted_index.document_frequency idx tok)
          (Pj_index.Inverted_index.document_frequency midx tok);
        Alcotest.(check bool) ("postings " ^ w) true
          (Pj_index.Posting_list.to_list (Pj_index.Inverted_index.postings idx tok)
          = Pj_index.Posting_list.to_list
              (Pj_index.Inverted_index.postings midx tok));
        for doc = 0 to Pj_index.Corpus.size corpus - 1 do
          Alcotest.(check (array int))
            (Printf.sprintf "positions %s in %d" w doc)
            (Pj_index.Inverted_index.positions_in idx ~token:tok ~doc_id:doc)
            (Pj_index.Inverted_index.positions_in midx ~token:tok ~doc_id:doc)
        done
      done;
      let s = Pj_index.Inverted_index.stats idx
      and s' = Pj_index.Inverted_index.stats midx in
      Alcotest.(check int) "n_postings" s.Pj_index.Inverted_index.n_postings
        s'.Pj_index.Inverted_index.n_postings;
      Alcotest.(check int) "n_positions" s.Pj_index.Inverted_index.n_positions
        s'.Pj_index.Inverted_index.n_positions;
      Mapped_index.verify mapped;
      Mapped_index.check mapped;
      let info = Mapped_index.info mapped in
      Alcotest.(check int) "info docs" (Pj_index.Corpus.size corpus)
        info.Mapped_index.n_docs;
      Alcotest.(check bool) "has blocks" true (info.Mapped_index.n_blocks > 0))

let test_shard_index_matches_sub_build () =
  let corpus = corpus_of sample_docs in
  let idx = Pj_index.Inverted_index.build corpus in
  with_temp (fun path ->
      Writer.write ~counts:[| 2; 3; 1 |] idx path;
      let mapped = Mapped_index.open_file path in
      let counts = Mapped_index.counts mapped in
      Alcotest.(check (array int)) "layout" [| 2; 3; 1 |] counts;
      let vocab = Pj_index.Corpus.vocab corpus in
      Array.iteri
        (fun s len ->
          let pos = Array.fold_left ( + ) 0 (Array.sub counts 0 s) in
          let mem_shard =
            Pj_index.Inverted_index.build
              (Pj_index.Corpus.sub corpus ~pos ~len)
          in
          let disk_shard = Mapped_index.shard_index mapped ~pos ~len in
          for tok = 0 to Pj_text.Vocab.size vocab - 1 do
            Alcotest.(check bool)
              (Printf.sprintf "shard %d postings of tok %d" s tok)
              true
              (Pj_index.Posting_list.to_list
                 (Pj_index.Inverted_index.postings mem_shard tok)
              = Pj_index.Posting_list.to_list
                  (Pj_index.Inverted_index.postings disk_shard tok));
            Alcotest.(check int)
              (Printf.sprintf "shard %d df of tok %d" s tok)
              (Pj_index.Inverted_index.document_frequency mem_shard tok)
              (Pj_index.Inverted_index.document_frequency disk_shard tok)
          done;
          let a = Pj_index.Inverted_index.stats mem_shard
          and b = Pj_index.Inverted_index.stats disk_shard in
          Alcotest.(check int)
            (Printf.sprintf "shard %d postings count" s)
            a.Pj_index.Inverted_index.n_postings
            b.Pj_index.Inverted_index.n_postings;
          Alcotest.(check int)
            (Printf.sprintf "shard %d positions count" s)
            a.Pj_index.Inverted_index.n_positions
            b.Pj_index.Inverted_index.n_positions)
        counts)

(* --- corruption -------------------------------------------------------- *)

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc s)

(* Truncate-at-every-offset fuzz: whatever the cut point, the reader
   fails with a deterministic, descriptive [Failure "Ondisk: ..."] —
   at open, at verify, or during a deep check — never a raw
   [Invalid_argument] or a successful open of garbage. *)
let test_truncation_fuzz_v4 () =
  let corpus = corpus_of sample_docs in
  let idx = Pj_index.Inverted_index.build corpus in
  with_temp (fun path ->
      Writer.write idx path;
      let s = read_bytes path in
      for cut = 0 to String.length s - 1 do
        write_bytes path (String.sub s 0 cut);
        match
          let m = Mapped_index.open_file path in
          Mapped_index.verify m;
          Mapped_index.check m
        with
        | () -> Alcotest.failf "truncation at %d went undetected" cut
        | exception Failure msg ->
            if not (String.length msg >= 7 && String.sub msg 0 7 = "Ondisk:")
            then Alcotest.failf "cut %d: unexpected message %S" cut msg
        | exception e ->
            Alcotest.failf "cut %d: raw exception %s" cut
              (Printexc.to_string e)
      done)

let test_bit_flip_fuzz_v4 () =
  let corpus = corpus_of sample_docs in
  let idx = Pj_index.Inverted_index.build corpus in
  with_temp (fun path ->
      Writer.write idx path;
      let s = read_bytes path in
      (* Flip one bit in every byte position; CRC (via verify) must
         catch each, unless the open itself already rejects it. *)
      for i = 0 to String.length s - 1 do
        let b = Bytes.of_string s in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x04));
        write_bytes path (Bytes.to_string b);
        match
          let m = Mapped_index.open_file path in
          Mapped_index.verify m
        with
        | () -> Alcotest.failf "bit flip at %d went undetected" i
        | exception Failure _ -> ()
        | exception e ->
            Alcotest.failf "flip %d: raw exception %s" i (Printexc.to_string e)
      done)

let rejects ~what ~defect f =
  match f () with
  | () -> Alcotest.failf "%s passed" what
  | exception Failure msg ->
      let n = String.length defect in
      let rec go i =
        i + n <= String.length msg
        && (String.sub msg i n = defect || go (i + 1))
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s names the defect: %s" what msg)
        true (go 0)

(* A posting past the file's documents, with a valid CRC: [verify] and
   every per-blob check pass (ids still increase), so only comparing
   ids with [n_docs] catches it. Served as a live segment at [base],
   such a posting would be a hit inside the next segment's range, so
   segment recovery refuses it too. The file is written by the
   ordinary writer from an index whose corpus lacks the last document
   its postings still name. *)
let test_check_rejects_out_of_range_posting () =
  let docs = [ [ "aa"; "bb" ]; [ "bb" ]; [ "aa"; "cc" ] ] in
  let full = Pj_index.Inverted_index.build (corpus_of docs) in
  let short = corpus_of [ [ "aa"; "bb" ]; [ "bb" ] ] in
  ignore (Pj_text.Vocab.intern (Pj_index.Corpus.vocab short) "cc");
  let open Pj_index.Inverted_index in
  let idx =
    of_provider short
      {
        pr_postings = postings full;
        pr_cursor = cursor full;
        pr_positions = positions_in full;
        pr_document_frequency = document_frequency full;
        pr_n_tokens = vocabulary_size full;
        pr_stats = (fun () -> stats full);
        pr_iter = None;
      }
  in
  with_temp (fun path ->
      Writer.write idx path;
      let m = Mapped_index.open_file path in
      Mapped_index.verify m;
      rejects ~what:"check" ~defect:"out of range" (fun () ->
          Mapped_index.check m);
      rejects ~what:"segment recovery" ~defect:"out of range" (fun () ->
          Segment.recover m (Pj_index.Corpus.create ())))

(* A dictionary entry with a blob but df 0, CRC recomputed: the writer
   never makes one, and it has no last skip entry to read. *)
let test_check_rejects_blob_with_df_zero () =
  let idx = Pj_index.Inverted_index.build (corpus_of sample_docs) in
  with_temp (fun path ->
      Writer.write idx path;
      let b = Bytes.of_string (read_bytes path) in
      let size = Bytes.length b in
      let trailer_off = size - File_format.trailer_size in
      let dict_off = Int64.to_int (Bytes.get_int64_le b (trailer_off + 32)) in
      (* Token 0 occurs in the sample, so its entry has a blob. *)
      Bytes.set_int32_le b (dict_off + 8) 0l;
      let payload_len = trailer_off + (8 * File_format.trailer_words) in
      Bytes.set_int32_le b payload_len
        (Pj_util.Bytecodec.crc32 ~pos:File_format.header_size
           ~len:(payload_len - File_format.header_size)
           (Bytes.to_string b));
      write_bytes path (Bytes.to_string b);
      let m = Mapped_index.open_file path in
      Mapped_index.verify m;
      rejects ~what:"check" ~defect:"df 0" (fun () -> Mapped_index.check m);
      rejects ~what:"segment recovery" ~defect:"df 0" (fun () ->
          Segment.recover m (Pj_index.Corpus.create ())))

(* --- other proxjoin files ------------------------------------------------ *)

let expect_ondisk_rejection ~what path =
  match Mapped_index.open_file path with
  | _ -> Alcotest.failf "v4 reader accepted %s" what
  | exception Failure msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: clear error %S" what msg)
        true
        (String.length msg >= 7 && String.sub msg 0 7 = "Ondisk:")

(* fixtures/legacy_v3.pjix: three documents in the retired v3 corpus
   format. *)
let test_legacy_rejected_by_v4_reader () =
  expect_ondisk_rejection ~what:"a v3 file" "fixtures/legacy_v3.pjix"

(* The live index's own files (a pre-v4 segment, the manifest, the
   WAL) are no v4 index either. *)
let test_live_files_rejected_by_v4_reader () =
  let dir = "../live/fixtures/parent_live_dir" in
  List.iter
    (fun name -> expect_ondisk_rejection ~what:name (Filename.concat dir name))
    [ "seg-000000.seg"; "MANIFEST"; "WAL" ]

(* The version byte (byte 4) sits outside the CRC, so the version
   check alone stands between the reader and a file of another layout:
   every version but this build's is refused with an error naming it,
   and the unpatched file still opens. *)
let test_other_versions_refused () =
  let idx = Pj_index.Inverted_index.build (corpus_of sample_docs) in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  with_temp (fun path ->
      Writer.write idx path;
      let original = read_bytes path in
      List.iter
        (fun v ->
          let b = Bytes.of_string original in
          Bytes.set b 4 (Char.chr v);
          write_bytes path (Bytes.to_string b);
          match Mapped_index.open_file path with
          | _ -> Alcotest.failf "version %d opened" v
          | exception Failure msg ->
              if not (contains msg (Printf.sprintf "format version %d " v))
              then Alcotest.failf "version %d: error %S names no version" v msg)
        (List.filter
           (fun v -> v <> File_format.version)
           [ 0; 1; 2; 3; 4; 5; 6; 255 ]);
      write_bytes path original;
      Mapped_index.check (Mapped_index.open_file path))

(* Crash-safety: the v4 writer publishes atomically. *)
let test_crashed_write_leaves_old_file () =
  let corpus = corpus_of sample_docs in
  let idx = Pj_index.Inverted_index.build corpus in
  let corpus2 = corpus_of [ [ "aa" ] ] in
  let idx2 = Pj_index.Inverted_index.build corpus2 in
  with_temp (fun path ->
      Fun.protect ~finally:Pj_util.Failpoint.clear (fun () ->
          Writer.write idx path;
          let before = read_bytes path in
          List.iter
            (fun site ->
              Pj_util.Failpoint.clear ();
              Pj_util.Failpoint.arm site Pj_util.Failpoint.Panic;
              (match
                 Writer.write ~fp_write:"ondisk.save.write"
                   ~fp_rename:"ondisk.save.rename" idx2 path
               with
              | () -> Alcotest.failf "write survived %s panic" site
              | exception Pj_util.Failpoint.Panicked _ -> ());
              Alcotest.(check string)
                (site ^ ": file untouched")
                before (read_bytes path);
              Pj_util.Failpoint.clear ();
              Mapped_index.check (Mapped_index.open_file path))
            [ "ondisk.save.write"; "ondisk.save.rename" ]))

let suite =
  [
    ("mapped: structure round trip", `Quick, test_structure_round_trip);
    ("mapped: shards = sub builds", `Quick, test_shard_index_matches_sub_build);
    search_matrix_equal;
    ("mapped: truncation fuzz", `Quick, test_truncation_fuzz_v4);
    ("mapped: check rejects out-of-range posting", `Quick,
      test_check_rejects_out_of_range_posting);
    ("mapped: check rejects a blob with df 0", `Quick,
      test_check_rejects_blob_with_df_zero);
    ("mapped: bit-flip fuzz", `Slow, test_bit_flip_fuzz_v4);
    ("mapped: legacy rejected by v4 reader", `Quick, test_legacy_rejected_by_v4_reader);
    ("mapped: live files rejected by v4 reader", `Quick,
      test_live_files_rejected_by_v4_reader);
    ("mapped: other format versions refused", `Quick,
      test_other_versions_refused);
    ("mapped: crashed write leaves old file", `Quick, test_crashed_write_leaves_old_file);
  ]
