let magic = "PJIX"

(* Standard CRC-32 (polynomial 0xEDB88320, reflected), as used by zlib
   and PNG — implemented here so the format needs no C bindings. The
   register is a native int holding 32 bits, so the loop never boxes. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 ?(pos = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - pos in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := crc_table.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let write_varint buf n =
  assert (n >= 0);
  let n = ref n in
  while !n >= 0x80 do
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (!n land 0x7f)));
    n := !n lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !n)

let read_varint s ~pos =
  let value = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if !pos >= String.length s then failwith "Storage: truncated varint";
    if !shift > 56 then failwith "Storage: varint overflow";
    let b = Char.code s.[!pos] in
    incr pos;
    value := !value lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then continue := false
  done;
  !value

let write_string buf s =
  write_varint buf (String.length s);
  Buffer.add_string buf s

let read_string s ~pos =
  let len = read_varint s ~pos in
  if !pos + len > String.length s then failwith "Storage: truncated string";
  let v = String.sub s !pos len in
  pos := !pos + len;
  v

(* Crash-safe publish: the bytes go to [path.tmp], reach the disk
   (fsync), and only then replace [path] with an atomic rename — a
   crash at any point leaves either the old complete file or the old
   file plus a stale [.tmp] that the next write overwrites. The
   optional failpoints bracket the vulnerable windows for chaos tests.
   Shared by the v4 writer and the live index's manifest. *)
let write_file_atomic ?fp_write ?fp_rename path buf =
  let hit = function
    | Some site -> Pj_util.Failpoint.hit site
    | None -> ()
  in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      hit fp_write;
      Buffer.output_buffer oc buf;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  hit fp_rename;
  Sys.rename tmp path;
  (* Durability of the rename itself: fsync the directory when the
     platform allows opening one (best-effort — the data file is
     already safe either way). *)
  try
    let dir = Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close dir) (fun () -> Unix.fsync dir)
  with Unix.Unix_error _ | Sys_error _ -> ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Core loader: the corpus plus the persisted shard layout. v1/v2 files
   predate shard layouts and load as one shard covering everything. *)
let parse_with_counts s =
  let pos = ref 0 in
  if String.length s < 4 || String.sub s 0 4 <> magic then
    failwith "Storage: not a proxjoin corpus file";
  pos := 4;
  let v = read_varint s ~pos in
  (* v2+ appends a CRC-32 footer over the payload; verify it and strip
     it so the body parser sees exactly the payload. v1 files (no
     footer) keep loading unchanged. *)
  let s =
    match v with
    | 1 -> s
    | 2 | 3 ->
        let payload_start = !pos in
        if String.length s < payload_start + 4 then
          failwith "Storage: truncated file (missing CRC footer)";
        let payload_len = String.length s - payload_start - 4 in
        let stored = String.get_int32_le s (payload_start + payload_len) in
        let computed = crc32 ~pos:payload_start ~len:payload_len s in
        if stored <> computed then
          failwith
            (Printf.sprintf
               "Storage: CRC mismatch (stored %08lx, computed %08lx) — file \
                truncated or corrupted"
               stored computed);
        String.sub s 0 (payload_start + payload_len)
    | v -> failwith (Printf.sprintf "Storage: unsupported version %d" v)
  in
  let vocab_size = read_varint s ~pos in
  let words = Array.init vocab_size (fun _ -> read_string s ~pos) in
  let corpus = Corpus.create () in
  (* Re-interning the words in id order reproduces the same ids; the
     document token arrays can then be mapped through [words]. *)
  let vocab = Corpus.vocab corpus in
  Array.iter (fun w -> ignore (Pj_text.Vocab.intern vocab w)) words;
  let n_docs = read_varint s ~pos in
  for _ = 1 to n_docs do
    let len = read_varint s ~pos in
    let tokens =
      Array.init len (fun _ ->
          let id = read_varint s ~pos in
          if id >= vocab_size then failwith "Storage: token id out of range";
          words.(id))
    in
    ignore (Corpus.add_tokens corpus tokens)
  done;
  let counts =
    if v < 3 then [| n_docs |]
    else begin
      let n_shards = read_varint s ~pos in
      if n_shards < 1 then failwith "Storage: shard layout with no shards";
      let counts = Array.init n_shards (fun _ -> read_varint s ~pos) in
      if Array.fold_left ( + ) 0 counts <> n_docs then
        failwith "Storage: shard layout does not cover the documents";
      counts
    end
  in
  if !pos <> String.length s then failwith "Storage: trailing bytes";
  (corpus, counts)

let load_with_counts path =
  Pj_util.Failpoint.hit "storage.load";
  let s = read_file path in
  (* Every malformation the parser detects is a [Failure "Storage:
     ..."]; anything else a corrupt file manages to trigger is wrapped
     so no raw exception ([Invalid_argument], [Out_of_memory] from an
     absurd length, ...) escapes to callers. *)
  try parse_with_counts s with
  | Failure _ as e -> raise e
  | e ->
      failwith
        (Printf.sprintf "Storage: corrupt index file %s (%s)" path
           (Printexc.to_string e))

let load_corpus path = fst (load_with_counts path)

let load_sharded path =
  let corpus, counts = load_with_counts path in
  Sharded_index.build_with_counts corpus counts

