(* Golden bytes: the v4 file written from the counting build equals the
   file written from the reference accumulate-then-sort build, byte for
   byte — monolithic, with a shard layout, and through [write_sharded].
   Rewriting a compacted file from its mapped index reproduces it too. *)

open Pj_ondisk

let with_temp f =
  let path = Filename.temp_file "proxjoin_golden" ".pjx4" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let bytes_of write =
  with_temp (fun path ->
      write path;
      In_channel.with_open_bin path In_channel.input_all)

(* Prose-like documents over a small stemmed vocabulary: common words
   span several blocks, and words share stems. *)
let words =
  [| "lenovo"; "partners"; "partnership"; "nba"; "games"; "game"; "the";
     "olympic"; "beijing"; "connect"; "connected"; "connection"; "deal";
     "announces"; "announced"; "computer"; "computers"; "sponsor" |]

let texts ~seed n =
  let rng = Pj_util.Prng.create seed in
  List.init n (fun _ ->
      String.concat " "
        (List.init (Pj_util.Prng.int rng 40) (fun _ ->
             words.(Pj_util.Prng.int rng (Array.length words)))))

let test_golden () =
  let corpus = Pj_index.Corpus.of_stemmed_texts (texts ~seed:7 700) in
  let reference = Pj_reference.build_index corpus in
  let built = Pj_index.Inverted_index.build corpus in
  let expected = bytes_of (Writer.write reference) in
  Alcotest.(check bool) "write build = write reference" true
    (bytes_of (Writer.write built) = expected);
  let counts = [| 250; 0; 300; 150 |] in
  let expected_sharded = bytes_of (Writer.write ~counts reference) in
  Alcotest.(check bool) "with a shard layout" true
    (bytes_of (Writer.write ~counts built) = expected_sharded);
  Alcotest.(check bool) "write_sharded = write ~counts reference" true
    (bytes_of
       (Writer.write_sharded
          (Pj_index.Sharded_index.build_with_counts corpus counts))
     = expected_sharded);
  (* v4 -> v4: the compaction path that re-reads a compacted file. *)
  Alcotest.(check bool) "rewrite of the mapped file" true
    (with_temp (fun path ->
         Writer.write ~counts built path;
         let mapped = Mapped_index.open_file path in
         bytes_of (Writer.write ~counts (Mapped_index.index mapped))
         = expected_sharded))

let suite = [ ("writer: golden bytes", `Quick, test_golden) ]
