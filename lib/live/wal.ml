(* Write-ahead log: length-prefixed, CRC-32-framed add/delete records
   with group-commit fsync and rotation at flush. See wal.mli for the
   format and the recovery argument. *)

module Bytecodec = Pj_util.Bytecodec
module Failpoint = Pj_util.Failpoint

let filename = "WAL"
let magic = "PJWL"
let version = 1

(* A frame whose length prefix exceeds this is treated as the torn
   tail: no legitimate record (one document's tokens) comes close, and
   trusting a garbage length would make replay read gigabytes. *)
let max_payload = 1 lsl 26

type fsync_policy = Per_batch | Every_ms of int | Never

type record =
  | Add of { id : int; tokens : string array }
  | Delete of int

type t = {
  fd : Unix.file_descr;
  path : string;
  policy : fsync_policy;
  buf : Buffer.t;  (* records appended since the last commit/rotate *)
  mutable last_fsync : float;  (* monotonic; drives [Every_ms] *)
  mutable appends : int;
  mutable fsyncs : int;
  mutable closed : bool;
}

let fsync_policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "per-batch" | "per_batch" | "batch" -> Ok Per_batch
  | "never" -> Ok Never
  | s -> (
      match String.index_opt s ':' with
      | Some i
        when String.sub s 0 i = "every"
             || String.sub s 0 i = "every-ms"
             || String.sub s 0 i = "every_ms" -> (
          let rest = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt rest with
          | Some ms when ms > 0 -> Ok (Every_ms ms)
          | _ -> Error (Printf.sprintf "invalid fsync interval %S" rest))
      | _ ->
          Error
            (Printf.sprintf
               "unknown fsync policy %S (expected per-batch, every:<ms> or never)"
               s))

let header =
  let b = Buffer.create 8 in
  Buffer.add_string b magic;
  Bytecodec.write_varint b version;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)

let add_u32_le buf (v : int32) =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 v;
  Buffer.add_bytes buf b

let encode_record buf r =
  let payload = Buffer.create 64 in
  (match r with
  | Add { id; tokens } ->
      Bytecodec.write_varint payload 1;
      Bytecodec.write_varint payload id;
      Bytecodec.write_varint payload (Array.length tokens);
      Array.iter (Bytecodec.write_string payload) tokens
  | Delete id ->
      Bytecodec.write_varint payload 2;
      Bytecodec.write_varint payload id);
  let p = Buffer.contents payload in
  add_u32_le buf (Int32.of_int (String.length p));
  Buffer.add_string buf p;
  add_u32_le buf (Bytecodec.crc32 p)

let decode_payload p =
  let pos = ref 0 in
  let tag = Bytecodec.read_varint p ~pos in
  let r =
    match tag with
    | 1 ->
        let id = Bytecodec.read_varint p ~pos in
        let n = Bytecodec.read_varint p ~pos in
        if n < 0 || n > String.length p then failwith "Wal: token count";
        let tokens = Array.init n (fun _ -> Bytecodec.read_string p ~pos) in
        Add { id; tokens }
    | 2 -> Delete (Bytecodec.read_varint p ~pos)
    | _ -> failwith "Wal: unknown record type"
  in
  if !pos <> String.length p then failwith "Wal: trailing payload bytes";
  r

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)

(* Scan [s] from the end of the header to the first frame that is
   truncated, oversized or CRC-mismatching; return the intact records
   (in order) and the byte length of the intact prefix. *)
let scan s =
  let len = String.length s in
  let records = ref [] in
  let pos = ref (String.length header) in
  let stop = ref false in
  while not !stop do
    let p = !pos in
    if p + 8 > len then stop := true
    else
      let plen = Int32.to_int (String.get_int32_le s p) in
      if plen < 0 || plen > max_payload || p + 8 + plen > len then stop := true
      else
        let payload = String.sub s (p + 4) plen in
        let stored = String.get_int32_le s (p + 4 + plen) in
        if not (Int32.equal stored (Bytecodec.crc32 payload)) then stop := true
        else
          match decode_payload payload with
          | r ->
              records := r :: !records;
              pos := p + 8 + plen
          | exception Failure _ -> stop := true
  done;
  (List.rev !records, !pos)

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

let fsync t =
  Failpoint.hit "live.wal.fsync";
  Unix.fsync t.fd;
  t.fsyncs <- t.fsyncs + 1;
  t.last_fsync <- Pj_util.Timing.monotonic_now ()

let open_dir ~dir ~fsync_policy =
  let path = Filename.concat dir filename in
  let records, valid_len =
    match Bytecodec.read_file path with
    | s ->
        if String.length s < String.length header then ([], -1)
        else if String.sub s 0 (String.length header) <> header then
          failwith (Printf.sprintf "Live: corrupt WAL header in %s" path)
        else scan s
    | exception Sys_error _ -> ([], -1)
  in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  let t =
    {
      fd;
      path;
      policy = fsync_policy;
      buf = Buffer.create 4096;
      last_fsync = Pj_util.Timing.monotonic_now ();
      appends = 0;
      fsyncs = 0;
      closed = false;
    }
  in
  (if valid_len < 0 then (
     (* Fresh log, or a crash tore the header itself (nothing after a
        torn header can be intact): start over. *)
     Unix.ftruncate fd 0;
     write_all fd header;
     Unix.fsync fd)
   else (
     (* Truncate the torn tail; appends resume after the last intact
        record. *)
     Unix.ftruncate fd valid_len;
     ignore (Unix.lseek fd valid_len Unix.SEEK_SET)));
  (records, t)

(* ------------------------------------------------------------------ *)
(* Append path                                                         *)

let append t r =
  Failpoint.hit "live.wal.append";
  encode_record t.buf r;
  t.appends <- t.appends + 1

let due t =
  match t.policy with
  | Per_batch -> true
  | Never -> false
  | Every_ms ms ->
      Pj_util.Timing.monotonic_now () -. t.last_fsync >= float_of_int ms /. 1000.

let commit t =
  if Buffer.length t.buf = 0 then false
  else begin
    let s = Buffer.contents t.buf in
    (* The failpoint fires before the write so an injected crash
       models the worst case: the record was acknowledged to no one
       and never reached the file. *)
    let do_sync = due t in
    if do_sync then Failpoint.hit "live.wal.fsync";
    write_all t.fd s;
    Buffer.clear t.buf;
    if do_sync then begin
      Unix.fsync t.fd;
      t.fsyncs <- t.fsyncs + 1;
      t.last_fsync <- Pj_util.Timing.monotonic_now ()
    end;
    do_sync
  end

let rotate t =
  Failpoint.hit "live.wal.rotate";
  Buffer.clear t.buf;
  Unix.ftruncate t.fd 0;
  ignore (Unix.lseek t.fd 0 Unix.SEEK_SET);
  write_all t.fd header;
  fsync t

let rewrite t records =
  rotate t;
  List.iter (fun r -> encode_record t.buf r) records;
  if Buffer.length t.buf > 0 then begin
    write_all t.fd (Buffer.contents t.buf);
    Buffer.clear t.buf;
    fsync t
  end

let appends t = t.appends
let fsyncs t = t.fsyncs

let close t =
  if not t.closed then begin
    t.closed <- true;
    (* Clean shutdown is a durability barrier whatever the policy:
       anything buffered or written-through becomes real before the
       descriptor goes away. *)
    (try
       if Buffer.length t.buf > 0 then begin
         write_all t.fd (Buffer.contents t.buf);
         Buffer.clear t.buf
       end;
       Unix.fsync t.fd
     with Unix.Unix_error _ | Sys_error _ -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end
