open Pj_index

let sample_corpus () =
  let c = Corpus.create () in
  ignore (Corpus.add_text c "lenovo partners with nba lenovo wins");
  ignore (Corpus.add_text c "dell and lenovo compete");
  ignore (Corpus.add_text c "");
  ignore (Corpus.add_text c "the olympic games in beijing 2008");
  ignore (Corpus.add_text c "nba games in beijing");
  c

let build c counts =
  Sharded_index.of_prebuilt c ~counts ~shard_of:(fun _ ~pos ~len ->
      Inverted_index.build (Corpus.sub c ~pos ~len))

let test_balanced_build () =
  let c = sample_corpus () in
  Alcotest.(check (array int)) "sizes within one" [| 3; 2 |]
    (Pj_reference.balanced_counts ~shards:2 (Corpus.size c));
  let s = Pj_reference.sharded ~shards:2 c in
  Alcotest.(check int) "two shards" 2 (Sharded_index.n_shards s);
  (* Postings keep global document ids: "nba" occurs in docs 0 and 4,
     each found in its own shard under its original id. *)
  let df i word =
    Posting_list.document_frequency
      (Inverted_index.postings_of_word (Sharded_index.shard s i) word)
  in
  Alcotest.(check int) "nba in shard 0" 1 (df 0 "nba");
  Alcotest.(check int) "nba in shard 1" 1 (df 1 "nba");
  let pl = Inverted_index.postings_of_word (Sharded_index.shard s 1) "nba" in
  let cur = Posting_list.cursor pl in
  Alcotest.(check int) "global doc id survives" 4
    (Posting_list.current_doc cur)

let test_one_shard_is_monolithic () =
  let c = sample_corpus () in
  let s = Pj_reference.sharded ~shards:1 c in
  Alcotest.(check int) "one shard" 1 (Sharded_index.n_shards s);
  let mono = Inverted_index.build c in
  let vocab = Corpus.vocab c in
  for tok = 0 to Pj_text.Vocab.size vocab - 1 do
    let w = Pj_text.Vocab.word vocab tok in
    Alcotest.(check int) ("df of " ^ w)
      (Posting_list.document_frequency (Inverted_index.postings_of_word mono w))
      (Posting_list.document_frequency
         (Inverted_index.postings_of_word (Sharded_index.shard s 0) w))
  done

let test_more_shards_than_docs () =
  let c = sample_corpus () in
  let s = Pj_reference.sharded ~shards:9 c in
  Alcotest.(check int) "all nine shards exist" 9 (Sharded_index.n_shards s);
  (* Trailing shards are empty and answer queries with no postings. *)
  let stats = Inverted_index.stats (Sharded_index.shard s 8) in
  Alcotest.(check int) "empty shard has no postings" 0
    stats.Inverted_index.n_postings

let test_explicit_empty_middle_shard () =
  let c = sample_corpus () in
  let ranges = ref [] in
  let s =
    Sharded_index.of_prebuilt c ~counts:[| 2; 0; 3 |]
      ~shard_of:(fun i ~pos ~len ->
        ranges := (i, pos, len) :: !ranges;
        Inverted_index.build (Corpus.sub c ~pos ~len))
  in
  Alcotest.(check (list (triple int int int)))
    "each shard built over its own range, in order"
    [ (0, 0, 2); (1, 2, 0); (2, 2, 3) ]
    (List.rev !ranges);
  Alcotest.(check int) "empty middle shard has no postings" 0
    (Inverted_index.stats (Sharded_index.shard s 1)).Inverted_index.n_postings

let test_invalid_layouts_rejected () =
  let c = sample_corpus () in
  Alcotest.(check bool) "empty layout" true
    (match build c [||] with exception Invalid_argument _ -> true | _ -> false);
  Alcotest.(check bool) "short layout" true
    (match build c [| 2; 2 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_corpus_sub () =
  let c = sample_corpus () in
  let view = Corpus.sub c ~pos:1 ~len:2 in
  Alcotest.(check int) "view size" 2 (Corpus.size view);
  Alcotest.(check bool) "vocabulary is shared, not copied" true
    (Corpus.vocab view == Corpus.vocab c);
  Alcotest.(check int) "documents keep global ids" 1
    (Corpus.document view 0).Pj_text.Document.id;
  List.iter
    (fun (pos, len) ->
      Alcotest.(check bool)
        (Printf.sprintf "sub ~pos:%d ~len:%d rejected" pos len)
        true
        (match Corpus.sub c ~pos ~len with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [ (-1, 2); (0, -1); (4, 2) ]

let suite =
  [
    ("sharded: balanced build", `Quick, test_balanced_build);
    ("sharded: one shard = monolithic", `Quick, test_one_shard_is_monolithic);
    ("sharded: more shards than docs", `Quick, test_more_shards_than_docs);
    ("sharded: explicit empty shard", `Quick, test_explicit_empty_middle_shard);
    ("sharded: invalid layouts", `Quick, test_invalid_layouts_rejected);
    ("sharded: corpus sub views", `Quick, test_corpus_sub);
  ]
