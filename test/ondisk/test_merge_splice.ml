(* Splice merges: [Inverted_index.concat_adjacent] over two adjacent
   document ranges, each held in one of the layouts a live merge meets
   — a memtable view ([Postings_builder]), a recovery rebuild
   ([build_docs]) or an earlier splice — must produce postings
   byte-identical to a from-scratch [build_docs] over the union range,
   tombstone filter included. An index that cannot enumerate its terms
   (the mapped v4 layout) is refused. *)

open Pj_ondisk

let alphabet = [| "aa"; "bb"; "cc"; "dd"; "ee"; "ff" |]

let random_docs rng n =
  Array.init n (fun _ ->
      Array.init
        (1 + Pj_util.Prng.int rng 10)
        (fun _ -> Pj_util.Prng.choose rng alphabet))

let rebuilt corpus ~pos ~len =
  Pj_index.Inverted_index.build_docs corpus
    (Pj_index.Corpus.docs_slice corpus ~pos ~len)

let memtable corpus ~pos ~len =
  let b = Pj_index.Postings_builder.create () in
  Array.iter
    (Pj_index.Postings_builder.add_doc b)
    (Pj_index.Corpus.docs_slice corpus ~pos ~len);
  Pj_index.Postings_builder.index b corpus ~max_doc:(pos + len - 1)

(* Two halves of the range, spliced. *)
let spliced corpus ~pos ~len =
  let half = len / 2 in
  Pj_index.Inverted_index.concat_adjacent
    (rebuilt corpus ~pos ~len:half)
    (memtable corpus ~pos:(pos + half) ~len:(len - half))

let layouts =
  [ ("memtable", memtable); ("rebuilt", rebuilt); ("spliced", spliced) ]

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

let test_layout_pairs () =
  let rng = Pj_util.Prng.create 4242 in
  for trial = 1 to 8 do
    let n = 20 + Pj_util.Prng.int rng 300 in
    let corpus = Pj_index.Corpus.create () in
    Array.iter
      (fun d -> ignore (Pj_index.Corpus.add_tokens corpus d))
      (random_docs rng n);
    let cut = 2 + Pj_util.Prng.int rng (n - 3) in
    (* Every other doc of one trial in three dies, so the [skip] purge
       runs through every layout's postings too. *)
    let skip =
      if trial mod 3 = 0 then Some (fun id -> id mod 2 = 0) else None
    in
    let reference =
      Pj_index.Inverted_index.build_docs ?skip corpus
        (Pj_index.Corpus.docs_slice corpus ~pos:0 ~len:n)
    in
    List.iter
      (fun (lname, left) ->
        List.iter
          (fun (rname, right) ->
            let merged =
              Pj_index.Inverted_index.concat_adjacent ?skip
                (left corpus ~pos:0 ~len:cut)
                (right corpus ~pos:cut ~len:(n - cut))
            in
            if not (indexes_equal merged reference) then
              Alcotest.failf "%s+%s (cut %d): splice differs from rebuild"
                lname rname cut)
          layouts)
      layouts
  done

let test_mapped_index_refused () =
  let rng = Pj_util.Prng.create 99 in
  let corpus = Pj_index.Corpus.create () in
  Array.iter
    (fun d -> ignore (Pj_index.Corpus.add_tokens corpus d))
    (random_docs rng 50);
  let path = Filename.temp_file "proxjoin_splice" ".pjx4" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists (path ^ ".tmp") then Sys.remove (path ^ ".tmp"))
    (fun () ->
      Writer.write (Pj_index.Inverted_index.build corpus) path;
      let mapped = Mapped_index.index (Mapped_index.open_file path) in
      Alcotest.check_raises "mapped index refused"
        (Invalid_argument
           "Inverted_index.concat_adjacent: terms not enumerable")
        (fun () ->
          ignore
            (Pj_index.Inverted_index.concat_adjacent
               (rebuilt corpus ~pos:0 ~len:0)
               mapped)))

let suite =
  [
    ("splice = rebuild for every merge input pairing", `Quick, test_layout_pairs);
    ("mapped v4 index refused by the splice", `Quick, test_mapped_index_refused);
  ]
