(* v2 of the live segment format ("PJSG"): the v1 sections — base,
   file-local string table, per-document token runs, dead ids — plus a
   precomputed postings section in the same block-compressed layout as
   the v4 corpus format (Codec): a fixed-width dictionary keyed by
   local string-table ids, then one term blob per word. Doc ids inside
   the blobs are ABSOLUTE (global corpus ids, as every fragment
   searcher expects); token ids are LOCAL (the global vocabulary keeps
   growing after a segment seals, so global ids are not reproducible
   at write time). A mapped segment resolves a query token by word
   through the string table, so sealed segments serve straight off
   disk and a recovery no longer rebuilds their inverted indexes. *)

let magic = "PJSG"
let version = 2

module Storage = Pj_index.Storage

(* dict entry: u64le absolute blob offset (0 = no postings) | u32le df *)
let dict_entry_size = 12

(* --- writing ------------------------------------------------------------ *)

let write ~failpoint path ~base ~(docs : string array array) ~dead =
  let buf = Buffer.create (64 * 1024) in
  Buffer.add_string buf magic;
  Storage.write_varint buf version;
  let payload_start = Buffer.length buf in
  Storage.write_varint buf base;
  let table = Hashtbl.create 1024 in
  let words = ref [] and n_words = ref 0 in
  Array.iter
    (Array.iter (fun w ->
         if not (Hashtbl.mem table w) then begin
           Hashtbl.add table w !n_words;
           words := w :: !words;
           incr n_words
         end))
    docs;
  Storage.write_varint buf !n_words;
  List.iter (Storage.write_string buf) (List.rev !words);
  let runs = Array.map (Array.map (Hashtbl.find table)) docs in
  Storage.write_varint buf (Array.length runs);
  Array.iter
    (fun run ->
      Storage.write_varint buf (Array.length run);
      Array.iter (Storage.write_varint buf) run)
    runs;
  Storage.write_varint buf (List.length dead);
  List.iter (Storage.write_varint buf) dead;
  (* Postings: dict then blobs, blob offsets absolute in the file. Per
     local word, the postings over absolute doc ids [base+i]; a dead (or
     genuinely empty) document is an empty token run and contributes
     nothing, exactly like [Inverted_index.build_docs ~skip]. *)
  let postings =
    Pj_index.Inverted_index.count_postings ~n_slots:!n_words
      (Array.init (Array.length runs) (fun i -> base + i))
      runs
  in
  let blobs = Buffer.create (64 * 1024) in
  let dict_off = Buffer.length buf in
  let blobs_off = dict_off + (dict_entry_size * !n_words) in
  let n_postings = ref 0 and n_positions = ref 0 in
  Array.iter
    (fun posts ->
      let df = Array.length posts in
      if df = 0 then begin
        Buffer.add_int64_le buf 0L;
        Buffer.add_int32_le buf 0l
      end
      else begin
        Buffer.add_int64_le buf (Int64.of_int (blobs_off + Buffer.length blobs));
        Buffer.add_int32_le buf (Int32.of_int df);
        n_postings := !n_postings + df;
        Array.iter
          (fun p ->
            n_positions :=
              !n_positions + Array.length p.Pj_index.Posting.positions)
          posts;
        Codec.encode blobs posts
      end)
    postings;
  Buffer.add_buffer buf blobs;
  Buffer.add_int64_le buf (Int64.of_int !n_postings);
  Buffer.add_int64_le buf (Int64.of_int !n_positions);
  let contents = Buffer.contents buf in
  let crc =
    Storage.crc32 ~pos:payload_start
      ~len:(String.length contents - payload_start)
      contents
  in
  let footer = Bytes.create 4 in
  Bytes.set_int32_le footer 0 crc;
  Buffer.add_bytes buf footer;
  Storage.write_file_atomic ~fp_write:failpoint ~fp_rename:failpoint path buf

(* --- reading ------------------------------------------------------------ *)

type t = {
  buf : Layout.buf;
  base : int;
  n_docs : int;
  docs_off : int; (* start of the token-run section *)
  dead : int list;
  words : string array; (* local string table, id order *)
  local : (string, int) Hashtbl.t; (* word -> local id *)
  dict_off : int;
  blobs_off : int;
  n_postings : int;
  n_positions : int;
}

let parse buf =
  let size = Layout.length buf in
  if size < 4 || Layout.sub_string buf ~pos:0 ~len:4 <> magic then
    failwith "Ondisk: not a proxjoin segment file";
  let pos = ref 4 in
  let v = Layout.read_varint buf ~pos in
  if v <> version then
    failwith (Printf.sprintf "Ondisk: unsupported segment version %d" v);
  let payload_start = !pos in
  if size < payload_start + 4 then
    failwith "Ondisk: truncated segment file (missing CRC footer)";
  let payload_len = size - payload_start - 4 in
  let stored = Int32.of_int (Layout.u32le buf (payload_start + payload_len)) in
  let computed = Layout.crc32 buf ~pos:payload_start ~len:payload_len in
  if stored <> computed then
    failwith
      (Printf.sprintf
         "Ondisk: segment CRC mismatch (stored %08lx, computed %08lx) — file \
          truncated or corrupted"
         stored computed);
  let limit = payload_start + payload_len in
  let base = Layout.read_varint buf ~pos in
  let n_words = Layout.read_varint buf ~pos in
  let words =
    Array.init n_words (fun _ ->
        let len = Layout.read_varint buf ~pos in
        if !pos + len > limit then
          failwith "Ondisk: segment string table overruns the file";
        let w = Layout.sub_string buf ~pos:!pos ~len in
        pos := !pos + len;
        w)
  in
  let local = Hashtbl.create (2 * n_words) in
  Array.iteri (fun i w -> Hashtbl.replace local w i) words;
  let n_docs = Layout.read_varint buf ~pos in
  let docs_off = !pos in
  for _ = 1 to n_docs do
    let len = Layout.read_varint buf ~pos in
    for _ = 1 to len do
      if Layout.read_varint buf ~pos >= n_words then
        failwith "Ondisk: segment word id out of range"
    done
  done;
  let n_dead = Layout.read_varint buf ~pos in
  let dead = List.init n_dead (fun _ -> Layout.read_varint buf ~pos) in
  List.iter
    (fun id ->
      if id < base || id >= base + n_docs then
        failwith "Ondisk: segment dead id outside its range")
    dead;
  let dict_off = !pos in
  let blobs_off = dict_off + (dict_entry_size * n_words) in
  if limit < blobs_off + 16 then
    failwith "Ondisk: segment postings section overruns the file";
  let n_postings = Layout.u64le buf (limit - 16) in
  let n_positions = Layout.u64le buf (limit - 8) in
  {
    buf;
    base;
    n_docs;
    docs_off;
    dead;
    words;
    local;
    dict_off;
    blobs_off;
    n_postings;
    n_positions;
  }

let open_file path =
  let buf = Layout.map_file path in
  try parse buf with
  | Failure _ as e -> raise e
  | e ->
      failwith
        (Printf.sprintf "Ondisk: %s: corrupt segment file (%s)" path
           (Printexc.to_string e))

let of_string s =
  try parse (Layout.of_string s)
  with
  | Failure _ as e -> raise e
  | e ->
      failwith
        (Printf.sprintf "Ondisk: corrupt segment (%s)" (Printexc.to_string e))

let base t = t.base
let n_docs t = t.n_docs
let dead t = t.dead

let docs t =
  let pos = ref t.docs_off in
  Array.init t.n_docs (fun _ ->
      let len = Layout.read_varint t.buf ~pos in
      Array.init len (fun _ -> t.words.(Layout.read_varint t.buf ~pos)))

(* --- serving ------------------------------------------------------------ *)

let reader_of_local t w =
  let off = t.dict_off + (dict_entry_size * w) in
  let blob = Layout.u64le t.buf off in
  if blob = 0 then None
  else Some { Codec.buf = t.buf; blob; df = Layout.u32le t.buf (off + 8) }

let reader_of_word t word =
  match Hashtbl.find_opt t.local word with
  | None -> None
  | Some w -> reader_of_local t w

(* Provider keyed by GLOBAL token ids: each lookup goes token -> word
   (global vocabulary) -> local id (string table) -> dictionary entry.
   The vocabulary may have grown past the segment's words — unknown
   words simply have no postings here, exactly as in a
   [build_docs]-built fragment index. *)
let index t corpus =
  let vocab = Pj_index.Corpus.vocab corpus in
  let reader tok =
    if tok < 0 || tok >= Pj_text.Vocab.size vocab then None
    else reader_of_word t (Pj_text.Vocab.word vocab tok)
  in
  let positions_at r ~doc_id =
    let c = Codec.cursor r in
    Pj_index.Posting_list.seek c doc_id;
    match Pj_index.Posting_list.current c with
    | Some p when p.Pj_index.Posting.doc_id = doc_id ->
        p.Pj_index.Posting.positions
    | Some _ | None -> [||]
  in
  Pj_index.Inverted_index.of_provider corpus
    {
      Pj_index.Inverted_index.pr_postings =
        (fun tok ->
          match reader tok with
          | None -> Pj_index.Posting_list.empty
          | Some r -> Codec.decode r);
      pr_cursor =
        (fun tok ->
          match reader tok with
          | None -> Pj_index.Posting_list.cursor Pj_index.Posting_list.empty
          | Some r -> Codec.cursor r);
      pr_positions =
        (fun ~token ~doc_id ->
          match reader token with
          | None -> [||]
          | Some r -> positions_at r ~doc_id);
      pr_document_frequency =
        (fun tok -> match reader tok with None -> 0 | Some r -> r.Codec.df);
      pr_n_tokens = Array.length t.words;
      pr_stats =
        (fun () ->
          {
            Pj_index.Inverted_index.n_tokens = Array.length t.words;
            n_postings = t.n_postings;
            n_positions = t.n_positions;
          });
      (* Segment-merge enumeration: each local word decoded once and
         mapped through the global vocabulary, so [concat_adjacent] can
         splice this segment's postings into a merge instead of forcing
         a full re-tokenization rebuild. A word the vocabulary does not
         know is unreachable by any query here and is skipped — exactly
         the terms [reader] above would answer empty for. *)
      pr_iter =
        Some
          (fun f ->
            Array.iteri
              (fun w word ->
                match Pj_text.Vocab.find vocab word with
                | None -> ()
                | Some tok -> (
                    match reader_of_local t w with
                    | None -> ()
                    | Some r -> f tok (Codec.decode r)))
              t.words);
    }

let check t =
  (* Every dictionary entry chains to a well-formed blob, and the blob
     totals agree with the trailer counters. *)
  let n_postings = ref 0 and n_positions = ref 0 in
  Array.iteri
    (fun w _word ->
      match reader_of_local t w with
      | None -> ()
      | Some r ->
          if r.Codec.blob < t.blobs_off then
            failwith "Ondisk: segment blob offset before the blobs section";
          Codec.check_blob r;
          n_postings := !n_postings + r.Codec.df;
          let c = Codec.cursor r in
          let rec walk () =
            match Pj_index.Posting_list.current c with
            | None -> ()
            | Some p ->
                n_positions :=
                  !n_positions + Array.length p.Pj_index.Posting.positions;
                Pj_index.Posting_list.next c;
                walk ()
          in
          walk ())
    t.words;
  if !n_postings <> t.n_postings || !n_positions <> t.n_positions then
    failwith "Ondisk: segment posting totals disagree with the trailer"
