let add_u64le buf n = Buffer.add_int64_le buf (Int64.of_int n)

(* Core writer, parameterized on how to fetch one term's postings so
   [write_sharded] can concatenate per-shard lists without rebuilding
   a monolithic index first. *)
let write_with ?fp_write ?fp_rename ~corpus ~counts ~postings_of path =
  let vocab = Pj_index.Corpus.vocab corpus in
  let n_docs = Pj_index.Corpus.size corpus in
  let n_words = Pj_text.Vocab.size vocab in
  if
    Array.length counts = 0
    || Array.exists (fun c -> c < 0) counts
    || Array.fold_left ( + ) 0 counts <> n_docs
  then invalid_arg "Ondisk.Writer: shard layout does not cover the corpus";
  (* About a byte per token per section: a live segment's few
     kilobytes allocate no megabyte buffers. *)
  let size_hint = 4096 + Pj_index.Corpus.total_tokens corpus in
  let buf = Buffer.create size_hint in
  Buffer.add_string buf File_format.magic;
  Buffer.add_char buf (Char.chr File_format.version);
  (* Vocabulary: words in id order, so the reader re-interns to the
     same ids. *)
  let vocab_off = Buffer.length buf in
  Pj_util.Bytecodec.write_varint buf n_words;
  for id = 0 to n_words - 1 do
    Pj_util.Bytecodec.write_string buf (Pj_text.Vocab.word vocab id)
  done;
  (* Shard layout: contiguous doc-id range sizes. *)
  let layout_off = Buffer.length buf in
  Pj_util.Bytecodec.write_varint buf (Array.length counts);
  Array.iter (Pj_util.Bytecodec.write_varint buf) counts;
  (* Documents: a fixed-width offset index (random access by doc id in
     one u64 read), then the varint token runs. *)
  let doc_index_off = Buffer.length buf in
  let doc_data_off = doc_index_off + (8 * n_docs) in
  let docs = Buffer.create size_hint in
  let total_tokens = ref 0 in
  for i = 0 to n_docs - 1 do
    add_u64le buf (doc_data_off + Buffer.length docs);
    let d = Pj_index.Corpus.document corpus i in
    let len = Pj_text.Document.length d in
    total_tokens := !total_tokens + len;
    Pj_util.Bytecodec.write_varint docs len;
    Array.iter (Pj_util.Bytecodec.write_varint docs) d.Pj_text.Document.tokens
  done;
  Buffer.add_buffer buf docs;
  (* Term dictionary (fixed-width: u64 blob offset + u32 df per token
     id; offset 0 = no postings) and the block-compressed blobs. *)
  let dict_off = Buffer.length buf in
  let blobs_off = dict_off + (File_format.dict_entry_size * n_words) in
  let blobs = Buffer.create size_hint in
  let n_postings = ref 0 and n_positions = ref 0 in
  for tok = 0 to n_words - 1 do
    let posts = Pj_index.Posting_list.to_sorted_array (postings_of tok) in
    let df = Array.length posts in
    if df = 0 then begin
      add_u64le buf 0;
      Buffer.add_int32_le buf 0l
    end
    else begin
      add_u64le buf (blobs_off + Buffer.length blobs);
      Buffer.add_int32_le buf (Int32.of_int df);
      Codec.encode blobs posts;
      n_postings := !n_postings + df;
      Array.iter
        (fun p ->
          n_positions :=
            !n_positions + Array.length p.Pj_index.Posting.positions)
        posts
    end
  done;
  Buffer.add_buffer buf blobs;
  (* Trailer: section offsets and totals (CRC-protected), then the
     CRC-32 of everything since the header, then the end magic. *)
  List.iter (add_u64le buf)
    [
      vocab_off;
      layout_off;
      doc_index_off;
      doc_data_off;
      dict_off;
      blobs_off;
      n_docs;
      n_words;
      !total_tokens;
      !n_postings;
      !n_positions;
    ];
  let contents = Buffer.contents buf in
  let crc =
    Pj_util.Bytecodec.crc32 ~pos:File_format.header_size
      ~len:(String.length contents - File_format.header_size)
      contents
  in
  let footer = Bytes.create 4 in
  Bytes.set_int32_le footer 0 crc;
  Buffer.add_bytes buf footer;
  Buffer.add_string buf File_format.end_magic;
  Pj_util.Bytecodec.write_file_atomic ?fp_write ?fp_rename path buf

let write ?fp_write ?fp_rename ?counts idx path =
  let corpus = Pj_index.Inverted_index.corpus idx in
  let counts =
    match counts with
    | Some c -> c
    | None -> [| Pj_index.Corpus.size corpus |]
  in
  write_with ?fp_write ?fp_rename ~corpus ~counts
    ~postings_of:(Pj_index.Inverted_index.postings idx)
    path

let write_sharded sharded path =
  let corpus = Pj_index.Sharded_index.corpus sharded in
  let n = Pj_index.Sharded_index.n_shards sharded in
  (* Shard postings carry global doc ids over disjoint increasing
     ranges, so per-term concatenation in shard order is already the
     monolithic sorted list. *)
  let postings_of tok =
    let pl = ref Pj_index.Posting_list.empty in
    for i = 0 to n - 1 do
      pl :=
        Pj_index.Posting_list.append_disjoint !pl
          (Pj_index.Inverted_index.postings
             (Pj_index.Sharded_index.shard sharded i)
             tok)
    done;
    !pl
  in
  write_with ~fp_write:"ondisk.save.write" ~fp_rename:"ondisk.save.rename"
    ~corpus ~counts:(Pj_index.Sharded_index.counts sharded) ~postings_of path
