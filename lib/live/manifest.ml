(* The manifest ("PJMF") is the root of a live index directory: the
   durable generation, the segment files in doc-id order with the ids
   each has compacted away, and the tombstone set. It is rewritten —
   tmp+fsync+rename, so either the old or the new manifest is fully
   present after a crash — at every flush and merge install; segment
   files it does not name are orphans from interrupted operations and
   are ignored (then overwritten or left) by recovery. *)

let magic = "PJMF"
let version = 2
let filename = "MANIFEST"

type entry = {
  file : string; (* segment file name, relative to the directory *)
  base : int;
  len : int;
  dead : int list; (* ids compacted out of the segment, ascending *)
}

type t = {
  generation : int;
  vocab : string list;   (* every interned word, in id order *)
  segments : entry list; (* ascending, contiguous from document 0 *)
  tombstones : int list; (* deleted-but-not-yet-compacted ids, ascending *)
}

module Bytecodec = Pj_util.Bytecodec

let path ~dir = Filename.concat dir filename

let write ~dir t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Bytecodec.write_varint buf version;
  let payload_start = Buffer.length buf in
  Bytecodec.write_varint buf t.generation;
  Bytecodec.write_varint buf (List.length t.vocab);
  List.iter (Bytecodec.write_string buf) t.vocab;
  Bytecodec.write_varint buf (List.length t.segments);
  List.iter
    (fun e ->
      Bytecodec.write_string buf e.file;
      Bytecodec.write_varint buf e.base;
      Bytecodec.write_varint buf e.len;
      Bytecodec.write_varint buf (List.length e.dead);
      List.iter (Bytecodec.write_varint buf) e.dead)
    t.segments;
  Bytecodec.write_varint buf (List.length t.tombstones);
  List.iter (Bytecodec.write_varint buf) t.tombstones;
  let contents = Buffer.contents buf in
  let crc =
    Bytecodec.crc32 ~pos:payload_start
      ~len:(String.length contents - payload_start)
      contents
  in
  let footer = Bytes.create 4 in
  Bytes.set_int32_le footer 0 crc;
  Buffer.add_bytes buf footer;
  Bytecodec.write_file_atomic ~fp_write:"live.manifest"
    ~fp_rename:"live.manifest" (path ~dir) buf

let parse ~path s =
  let pos = ref 0 in
  if String.length s < 4 || String.sub s 0 4 <> magic then
    failwith "Live: not a proxjoin manifest";
  pos := 4;
  let v = Bytecodec.read_varint s ~pos in
  if v = 1 then
    failwith
      (Printf.sprintf
         "Live: %s is a manifest v1, whose segment files predate the PJX4 \
          segment format; this version opens only manifest v2 — rebuild the \
          directory from its documents"
         path);
  if v <> version then
    failwith
      (Printf.sprintf "Live: %s: unsupported manifest version %d" path v);
  let payload_start = !pos in
  if String.length s < payload_start + 4 then
    failwith "Live: truncated manifest (missing CRC footer)";
  let payload_len = String.length s - payload_start - 4 in
  let stored = String.get_int32_le s (payload_start + payload_len) in
  let computed = Bytecodec.crc32 ~pos:payload_start ~len:payload_len s in
  if stored <> computed then
    failwith
      (Printf.sprintf
         "Live: manifest CRC mismatch (stored %08lx, computed %08lx) — file \
          truncated or corrupted"
         stored computed);
  let s = String.sub s 0 (payload_start + payload_len) in
  let generation = Bytecodec.read_varint s ~pos in
  let n_vocab = Bytecodec.read_varint s ~pos in
  let vocab = List.init n_vocab (fun _ -> Bytecodec.read_string s ~pos) in
  let n_segments = Bytecodec.read_varint s ~pos in
  let segments =
    List.init n_segments (fun _ ->
        let file = Bytecodec.read_string s ~pos in
        let base = Bytecodec.read_varint s ~pos in
        let len = Bytecodec.read_varint s ~pos in
        let n_dead = Bytecodec.read_varint s ~pos in
        let dead = List.init n_dead (fun _ -> Bytecodec.read_varint s ~pos) in
        ignore
          (List.fold_left
             (fun prev id ->
               if id < base || id >= base + len then
                 failwith "Live: manifest dead id outside its segment";
               if id <= prev then
                 failwith "Live: manifest dead ids not ascending";
               id)
             (-1) dead);
        { file; base; len; dead })
  in
  let n_tombstones = Bytecodec.read_varint s ~pos in
  let tombstones = List.init n_tombstones (fun _ -> Bytecodec.read_varint s ~pos) in
  if !pos <> String.length s then failwith "Live: trailing bytes in manifest";
  (* Segments must tile [0, total) in order — recovery re-interns
     documents sequentially and depends on it. *)
  let next =
    List.fold_left
      (fun expected e ->
        if e.base <> expected || e.len < 0 then
          failwith "Live: manifest segments do not tile the doc-id space";
        e.base + e.len)
      0 segments
  in
  List.iter
    (fun id ->
      if id < 0 || id >= next then failwith "Live: tombstone out of range")
    tombstones;
  { generation; vocab; segments; tombstones }

let read ~dir =
  let p = path ~dir in
  if not (Sys.file_exists p) then None
  else
    let s = Bytecodec.read_file p in
    Some
      (try parse ~path:p s with
      | Failure _ as e -> raise e
      | e ->
          failwith
            (Printf.sprintf "Live: corrupt manifest %s (%s)" p
               (Printexc.to_string e)))
