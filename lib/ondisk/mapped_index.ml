type t = {
  path : string;
  buf : Layout.buf;
  vocab : Pj_text.Vocab.t;
  counts : int array;
  (* trailer *)
  vocab_off : int;
  layout_off : int;
  doc_index_off : int;
  doc_data_off : int;
  dict_off : int;
  blobs_off : int;
  trailer_off : int;
  n_docs : int;
  n_words : int;
  total_tokens : int;
  n_postings : int;
  n_positions : int;
  corpus : Pj_index.Corpus.t Lazy.t;
}

let fail t fmt =
  Printf.ksprintf (fun m -> failwith (Printf.sprintf "Ondisk: %s: %s" t m)) fmt

(* --- open -------------------------------------------------------------- *)

let fetch_doc buf ~doc_index_off ~doc_data_off ~dict_off ~n_words i =
  let off = Layout.u64le buf (doc_index_off + (8 * i)) in
  if off < doc_data_off || off >= dict_off then
    failwith (Printf.sprintf "Ondisk: document %d offset out of bounds" i);
  let pos = ref off in
  let len = Layout.read_varint buf ~pos in
  let tokens =
    Array.init len (fun _ ->
        let tok = Layout.read_varint buf ~pos in
        if tok >= n_words then
          failwith
            (Printf.sprintf "Ondisk: document %d token id out of range" i);
        tok)
  in
  { Pj_text.Document.id = i; tokens }

let parse path buf =
  let size = Layout.length buf in
  if size < File_format.header_size + File_format.trailer_size then
    fail path "file too small for a v4 index (%d bytes)" size;
  if Layout.sub_string buf ~pos:0 ~len:4 <> File_format.magic then
    fail path "not a v4 proxjoin index (bad magic)";
  let v = Layout.u8 buf 4 in
  if v <> File_format.version then fail path "%s" (File_format.version_error v);
  if
    Layout.sub_string buf ~pos:(size - 4) ~len:4 <> File_format.end_magic
  then fail path "truncated file (missing end magic)";
  let trailer_off = size - File_format.trailer_size in
  let word i = Layout.u64le buf (trailer_off + (8 * i)) in
  let vocab_off = word 0
  and layout_off = word 1
  and doc_index_off = word 2
  and doc_data_off = word 3
  and dict_off = word 4
  and blobs_off = word 5
  and n_docs = word 6
  and n_words = word 7
  and total_tokens = word 8
  and n_postings = word 9
  and n_positions = word 10 in
  if vocab_off <> File_format.header_size then fail path "bad vocabulary offset";
  if
    layout_off < vocab_off || doc_index_off < layout_off
    || doc_data_off <> doc_index_off + (8 * n_docs)
    || dict_off < doc_data_off
    || blobs_off <> dict_off + (File_format.dict_entry_size * n_words)
    || blobs_off > trailer_off
  then fail path "section offsets out of order";
  (* Vocabulary: eager — the word <-> id mapping must live on the heap
     for query-time lookups; it is tiny next to postings. Re-interning
     in file order reproduces the writer's ids. *)
  let pos = ref vocab_off in
  let n = Layout.read_varint buf ~pos in
  if n <> n_words then fail path "vocabulary count disagrees with trailer";
  let vocab = Pj_text.Vocab.create () in
  for _ = 1 to n_words do
    let len = Layout.read_varint buf ~pos in
    if !pos + len > layout_off then fail path "vocabulary overruns its section";
    ignore (Pj_text.Vocab.intern vocab (Layout.sub_string buf ~pos:!pos ~len));
    pos := !pos + len
  done;
  (* Shard layout. *)
  let pos = ref layout_off in
  let n_shards = Layout.read_varint buf ~pos in
  if n_shards < 1 then fail path "shard layout with no shards";
  let counts = Array.init n_shards (fun _ -> Layout.read_varint buf ~pos) in
  if Array.fold_left ( + ) 0 counts <> n_docs then
    fail path "shard layout does not cover the documents";
  let corpus =
    lazy
      (Pj_index.Corpus.of_paged ~vocab ~count:n_docs ~total_tokens
         (fetch_doc buf ~doc_index_off ~doc_data_off ~dict_off ~n_words))
  in
  {
    path;
    buf;
    vocab;
    counts;
    vocab_off;
    layout_off;
    doc_index_off;
    doc_data_off;
    dict_off;
    blobs_off;
    trailer_off;
    n_docs;
    n_words;
    total_tokens;
    n_postings;
    n_positions;
    corpus;
  }

let open_file path =
  let buf = Layout.map_file path in
  (* Every malformation is a deterministic [Failure "Ondisk: ..."]; no
     raw decoding exception escapes. *)
  try parse path buf with
  | Failure _ as e -> raise e
  | e ->
      failwith
        (Printf.sprintf "Ondisk: %s: corrupt index file (%s)" path
           (Printexc.to_string e))

let path t = t.path
let counts t = Array.copy t.counts
let corpus t = Lazy.force t.corpus

(* --- dictionary -------------------------------------------------------- *)

let term_reader t tok =
  if tok < 0 || tok >= t.n_words then None
  else begin
    let off = t.dict_off + (File_format.dict_entry_size * tok) in
    let blob = Layout.u64le t.buf off in
    if blob = 0 then None
    else begin
      let df = Layout.u32le t.buf (off + 8) in
      Some { Codec.buf = t.buf; blob; df }
    end
  end

let vocab t = t.vocab

(* --- providers --------------------------------------------------------- *)

let stats t =
  {
    Pj_index.Inverted_index.n_tokens = t.n_words;
    n_postings = t.n_postings;
    n_positions = t.n_positions;
  }

let positions_of_cursor c ~doc_id =
  Pj_index.Posting_list.seek c doc_id;
  match Pj_index.Posting_list.current c with
  | Some p when p.Pj_index.Posting.doc_id = doc_id ->
      p.Pj_index.Posting.positions
  | Some _ | None -> [||]

let full_provider t =
  {
    Pj_index.Inverted_index.pr_postings =
      (fun tok ->
        match term_reader t tok with
        | None -> Pj_index.Posting_list.empty
        | Some r -> Codec.decode r);
    pr_cursor =
      (fun tok ->
        match term_reader t tok with
        | None -> Pj_index.Posting_list.cursor Pj_index.Posting_list.empty
        | Some r -> Codec.cursor r);
    pr_positions =
      (fun ~token ~doc_id ->
        match term_reader t token with
        | None -> [||]
        | Some r -> positions_of_cursor (Codec.cursor r) ~doc_id);
    pr_document_frequency =
      (fun tok -> match term_reader t tok with None -> 0 | Some r -> r.Codec.df);
    pr_n_tokens = t.n_words;
    pr_stats = (fun () -> stats t);
    pr_iter = None (* postings stay on disk; no whole-index decode *);
  }

let range_provider t ~lo ~hi =
  let range_stats () =
    (* Cold path (size accounting): count each term's postings and
       positions inside the range. *)
    let n_postings = ref 0 and n_positions = ref 0 in
    for tok = 0 to t.n_words - 1 do
      match term_reader t tok with
      | None -> ()
      | Some r ->
          n_postings := !n_postings + Codec.count_in_range r ~lo ~hi;
          let c = Codec.cursor_in_range r ~lo ~hi in
          let rec walk () =
            match Pj_index.Posting_list.current c with
            | None -> ()
            | Some p ->
                n_positions :=
                  !n_positions + Array.length p.Pj_index.Posting.positions;
                Pj_index.Posting_list.next c;
                walk ()
          in
          walk ()
    done;
    {
      Pj_index.Inverted_index.n_tokens = t.n_words;
      n_postings = !n_postings;
      n_positions = !n_positions;
    }
  in
  {
    Pj_index.Inverted_index.pr_postings =
      (fun tok ->
        match term_reader t tok with
        | None -> Pj_index.Posting_list.empty
        | Some r ->
            let c = Codec.cursor_in_range r ~lo ~hi in
            let out = Pj_util.Vec.create () in
            let rec walk () =
              match Pj_index.Posting_list.current c with
              | None -> ()
              | Some p ->
                  Pj_util.Vec.push out p;
                  Pj_index.Posting_list.next c;
                  walk ()
            in
            walk ();
            Pj_index.Posting_list.of_sorted_array (Pj_util.Vec.to_array out));
    pr_cursor =
      (fun tok ->
        match term_reader t tok with
        | None -> Pj_index.Posting_list.cursor Pj_index.Posting_list.empty
        | Some r -> Codec.cursor_in_range r ~lo ~hi);
    pr_positions =
      (fun ~token ~doc_id ->
        if doc_id < lo || doc_id >= hi then [||]
        else
          match term_reader t token with
          | None -> [||]
          | Some r -> positions_of_cursor (Codec.cursor r) ~doc_id);
    pr_document_frequency =
      (fun tok ->
        match term_reader t tok with
        | None -> 0
        | Some r -> Codec.count_in_range r ~lo ~hi);
    pr_n_tokens = t.n_words;
    pr_stats = range_stats;
    pr_iter = None (* postings stay on disk; no whole-index decode *);
  }

let index t =
  Pj_index.Inverted_index.of_provider (corpus t) (full_provider t)

let shard_index t ~pos ~len =
  Pj_index.Inverted_index.of_provider (corpus t)
    (range_provider t ~lo:pos ~hi:(pos + len))

(* --- integrity --------------------------------------------------------- *)

let verify t =
  let payload_len = t.trailer_off + (8 * File_format.trailer_words) in
  let stored = Int32.of_int (Layout.u32le t.buf payload_len) in
  let computed =
    Layout.crc32 t.buf ~pos:File_format.header_size
      ~len:(payload_len - File_format.header_size)
  in
  if stored <> computed then
    fail t.path
      "CRC mismatch (stored %08lx, computed %08lx) — file truncated or \
       corrupted"
      stored computed

let check_dictionary t =
  for tok = 0 to t.n_words - 1 do
    match term_reader t tok with
    | None -> ()
    | Some r ->
        if r.Codec.blob < t.blobs_off || r.Codec.blob >= t.trailer_off then
          fail t.path "term %d blob offset out of bounds" tok;
        (* The writer never gives a blob to a term without postings;
           such an entry has no last skip entry to read. *)
        if r.Codec.df = 0 then fail t.path "term %d has a blob but df 0" tok;
        (* Ids increase within a blob (checked per block by [check]),
           so its last one bounds them all: a posting past the
           documents would surface as a hit in whatever range follows
           this file's. *)
        if Codec.last_doc r >= t.n_docs then
          fail t.path "term %d posting doc id %d out of range (%d documents)"
            tok (Codec.last_doc r) t.n_docs
  done

let check t =
  verify t;
  for i = 0 to t.n_docs - 1 do
    ignore
      (fetch_doc t.buf ~doc_index_off:t.doc_index_off
         ~doc_data_off:t.doc_data_off ~dict_off:t.dict_off ~n_words:t.n_words
         i)
  done;
  check_dictionary t;
  let df_sum = ref 0 and pos_sum = ref 0 in
  for tok = 0 to t.n_words - 1 do
    match term_reader t tok with
    | None -> ()
    | Some r ->
        Codec.check_blob r;
        df_sum := !df_sum + r.Codec.df;
        let c = Codec.cursor r in
        let rec walk () =
          match Pj_index.Posting_list.current c with
          | None -> ()
          | Some p ->
              pos_sum := !pos_sum + Array.length p.Pj_index.Posting.positions;
              Pj_index.Posting_list.next c;
              walk ()
        in
        walk ()
  done;
  if !df_sum <> t.n_postings then
    fail t.path "dictionary df sum %d disagrees with trailer %d" !df_sum
      t.n_postings;
  if !pos_sum <> t.n_positions then
    fail t.path "stored positions %d disagree with trailer %d" !pos_sum
      t.n_positions

(* --- inspection -------------------------------------------------------- *)

type info = {
  version : int;
  n_docs : int;
  n_shards : int;
  n_words : int;
  total_tokens : int;
  n_postings : int;
  n_positions : int;
  n_blocks : int;
  file_bytes : int;
  vocab_bytes : int;
  docs_bytes : int;
  dict_bytes : int;
  postings_bytes : int;
  mem_postings_bytes : int;
}

let info (t : t) =
  let n_blocks = ref 0 and n_lists = ref 0 in
  for tok = 0 to t.n_words - 1 do
    match term_reader t tok with
    | None -> ()
    | Some r ->
        incr n_lists;
        n_blocks := !n_blocks + Codec.n_blocks ~df:r.Codec.df
  done;
  (* Heap cost of the same postings as in-memory arrays, in 8-byte
     words: one array-spine slot + a 3-word posting record + a
     positions array (header + tf slots) per posting. *)
  let mem_postings_bytes =
    8 * ((5 * t.n_postings) + t.n_positions + !n_lists)
  in
  {
    version = File_format.version;
    n_docs = t.n_docs;
    n_shards = Array.length t.counts;
    n_words = t.n_words;
    total_tokens = t.total_tokens;
    n_postings = t.n_postings;
    n_positions = t.n_positions;
    n_blocks = !n_blocks;
    file_bytes = Layout.length t.buf;
    vocab_bytes = t.layout_off - t.vocab_off;
    docs_bytes = t.dict_off - t.doc_index_off;
    dict_bytes = t.blobs_off - t.dict_off;
    postings_bytes = t.trailer_off - t.blobs_off;
    mem_postings_bytes;
  }
