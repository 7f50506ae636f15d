(* Splice merges across storage layouts: [Inverted_index.concat_adjacent]
   over any heap × mmap pairing of two adjacent document ranges must
   (a) succeed — the on-disk providers now enumerate their terms via
   the dictionary + [Codec.decode], so no pairing forces the
   re-tokenization fallback — and (b) produce postings byte-identical
   to a from-scratch [build_docs] over the union range, tombstone
   filter included. *)

open Pj_ondisk

let alphabet = [| "aa"; "bb"; "cc"; "dd"; "ee"; "ff" |]

let random_docs rng n =
  Array.init n (fun _ ->
      Array.init
        (1 + Pj_util.Prng.int rng 10)
        (fun _ -> Pj_util.Prng.choose rng alphabet))

(* An mmap-backed index over documents [pos, pos+len) of [corpus]: a
   PJX4 segment written by [Segment.write] to a temp file and served
   off its map at [pos] — exactly a live index's sealed-segment
   searcher. *)
let mmap_range corpus ~pos ~len path =
  Test_segment.segment_view corpus ~pos ~len ~dead:(fun _ -> false) path

let heap_range corpus ~pos ~len =
  Pj_index.Inverted_index.build_docs corpus
    (Pj_index.Corpus.docs_slice corpus ~pos ~len)

(* Byte-identity of two indexes over the same corpus: same postings
   (doc ids and positions) for every vocabulary token. *)
let indexes_equal a b =
  let vocab_size =
    Pj_text.Vocab.size (Pj_index.Corpus.vocab (Pj_index.Inverted_index.corpus a))
  in
  let ok = ref true in
  for tok = 0 to vocab_size - 1 do
    let pa = Pj_index.Posting_list.to_list (Pj_index.Inverted_index.postings a tok)
    and pb = Pj_index.Posting_list.to_list (Pj_index.Inverted_index.postings b tok) in
    if pa <> pb then ok := false
  done;
  !ok

let check_pair ~ctx corpus ~cut ~n ~skip left right =
  let reference =
    Pj_index.Inverted_index.build_docs ?skip corpus
      (Pj_index.Corpus.docs_slice corpus ~pos:0 ~len:n)
  in
  match Pj_index.Inverted_index.concat_adjacent ?skip left right with
  | None -> Alcotest.failf "%s (cut %d): concat_adjacent declined" ctx cut
  | Some merged ->
      if not (indexes_equal merged reference) then
        Alcotest.failf "%s (cut %d): splice differs from rebuild" ctx cut

let test_heap_mmap_pairs () =
  let rng = Pj_util.Prng.create 4242 in
  for trial = 1 to 8 do
    let n = 20 + Pj_util.Prng.int rng 300 in
    let corpus = Pj_index.Corpus.create () in
    Array.iter
      (fun d -> ignore (Pj_index.Corpus.add_tokens corpus d))
      (random_docs rng n);
    let cut = 1 + Pj_util.Prng.int rng (n - 1) in
    (* Every other doc of one trial in three dies, so the [skip] purge
       runs through the spliced mmap postings too. *)
    let skip =
      if trial mod 3 = 0 then Some (fun id -> id mod 2 = 0) else None
    in
    Test_segment.with_seg_file (fun left_path ->
        Test_segment.with_seg_file (fun right_path ->
            let heap_l = heap_range corpus ~pos:0 ~len:cut
            and heap_r = heap_range corpus ~pos:cut ~len:(n - cut)
            and mmap_l = mmap_range corpus ~pos:0 ~len:cut left_path
            and mmap_r = mmap_range corpus ~pos:cut ~len:(n - cut) right_path in
            check_pair ~ctx:"heap+mmap" corpus ~cut ~n ~skip heap_l mmap_r;
            check_pair ~ctx:"mmap+heap" corpus ~cut ~n ~skip mmap_l heap_r;
            check_pair ~ctx:"mmap+mmap" corpus ~cut ~n ~skip mmap_l mmap_r;
            check_pair ~ctx:"heap+heap" corpus ~cut ~n ~skip heap_l heap_r))
  done

(* The compacted v4 whole-corpus index enumerates too (its provider is
   the other on-disk layout a merge can meet): concat of an empty heap
   prefix with the full mapped index must reproduce every list. *)
let test_mapped_index_enumerates () =
  let rng = Pj_util.Prng.create 99 in
  let corpus = Pj_index.Corpus.create () in
  Array.iter
    (fun d -> ignore (Pj_index.Corpus.add_tokens corpus d))
    (random_docs rng 150);
  let idx = Pj_index.Inverted_index.build corpus in
  let path = Filename.temp_file "proxjoin_splice" ".pjx4" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists (path ^ ".tmp") then Sys.remove (path ^ ".tmp"))
    (fun () ->
      Writer.write idx path;
      let mapped = Mapped_index.index (Mapped_index.open_file path) in
      let empty_prefix = heap_range corpus ~pos:0 ~len:0 in
      match Pj_index.Inverted_index.concat_adjacent empty_prefix mapped with
      | None -> Alcotest.fail "mapped full_provider cannot enumerate"
      | Some merged ->
          if not (indexes_equal merged idx) then
            Alcotest.fail "mapped enumeration differs from heap build")

let suite =
  [
    ("splice = rebuild for every heap/mmap pairing", `Quick, test_heap_mmap_pairs);
    ("compacted v4 index enumerates its terms", `Quick, test_mapped_index_enumerates);
  ]
