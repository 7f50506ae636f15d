(* Standard CRC-32 (polynomial 0xEDB88320, reflected), as used by zlib
   and PNG — implemented here so the formats need no C bindings. The
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

(* The 9th byte lands at bit 56 of a 63-bit int: only its low 6 bits
   fit. A larger 9th byte (a 7th value bit would be the sign; a set
   continuation bit would need a 10th byte) is an overflow, so a
   decoded value is never negative. *)
let read_varint s ~pos =
  let value = ref 0 and shift = ref 0 and continue = ref true in
  while !continue do
    if !pos >= String.length s then failwith "Bytecodec: truncated varint";
    let b = Char.code s.[!pos] in
    if !shift = 56 && b > 0x3f then failwith "Bytecodec: varint overflow";
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
  if len < 0 then failwith "Bytecodec: negative string length";
  if len > String.length s - !pos then failwith "Bytecodec: truncated string";
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
  let hit = function Some site -> Failpoint.hit site | None -> () in
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
