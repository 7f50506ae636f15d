type kind = Request | Response | Error_frame

type t = { kind : kind; id : int; payload : string }

type error = Truncated of string | Corrupt of string | Oversized of int

let magic_byte = '\xB1'
let version = 1
let header_bytes = 8
let trailer_bytes = 4
let max_body_bytes = 1 lsl 20

let tag_of_kind = function Request -> 1 | Response -> 2 | Error_frame -> 3

let kind_of_tag = function
  | 1 -> Some Request
  | 2 -> Some Response
  | 3 -> Some Error_frame
  | _ -> None

let encode buf t =
  if t.id < 0 then invalid_arg "Frame.encode: negative request id";
  if String.length t.payload > max_body_bytes then
    invalid_arg "Frame.encode: payload exceeds max_body_bytes";
  let body = Buffer.create (String.length t.payload + 8) in
  Pj_util.Bytecodec.write_varint body t.id;
  Pj_util.Bytecodec.write_varint body (tag_of_kind t.kind);
  Pj_util.Bytecodec.write_string body t.payload;
  let body = Buffer.contents body in
  Buffer.add_char buf magic_byte;
  Buffer.add_string buf "PJ";
  Buffer.add_char buf (Char.chr version);
  let len = Bytes.create 4 in
  Bytes.set_int32_be len 0 (Int32.of_int (String.length body));
  Buffer.add_bytes buf len;
  Buffer.add_string buf body;
  let crc = Bytes.create 4 in
  Bytes.set_int32_be crc 0 (Pj_util.Bytecodec.crc32 body);
  Buffer.add_bytes buf crc

let to_string t =
  let buf = Buffer.create (String.length t.payload + header_bytes + trailer_bytes + 8) in
  encode buf t;
  Buffer.contents buf

(* The header is fixed-size and self-contained, so a reader can bound
   its allocation before touching the body: [Oversized] fires off the
   declared length alone. *)
let decode_body_length s ~pos =
  if String.length s - pos < header_bytes then
    Error (Truncated "frame header")
  else if s.[pos] <> magic_byte then Error (Corrupt "bad magic byte")
  else if s.[pos + 1] <> 'P' || s.[pos + 2] <> 'J' then
    Error (Corrupt "bad magic")
  else if Char.code s.[pos + 3] <> version then
    Error
      (Corrupt
         (Printf.sprintf "unsupported frame version %d" (Char.code s.[pos + 3])))
  else
    let len = Int32.to_int (String.get_int32_be s (pos + 4)) in
    if len < 0 || len > max_body_bytes then Error (Oversized len)
    else Ok len

let decode ?(max_body = max_body_bytes) s ~pos =
  let p = !pos in
  match decode_body_length s ~pos:p with
  | Error e -> Error e
  | Ok len ->
      if len > max_body then Error (Oversized len)
      else if String.length s - p < header_bytes + len + trailer_bytes then
        Error (Truncated "frame body")
      else begin
        let body_start = p + header_bytes in
        let stored = String.get_int32_be s (body_start + len) in
        let computed = Pj_util.Bytecodec.crc32 ~pos:body_start ~len s in
        if stored <> computed then Error (Corrupt "CRC mismatch")
        else begin
          match
            let body = String.sub s body_start len in
            let bpos = ref 0 in
            let id = Pj_util.Bytecodec.read_varint body ~pos:bpos in
            let tag = Pj_util.Bytecodec.read_varint body ~pos:bpos in
            let payload = Pj_util.Bytecodec.read_string body ~pos:bpos in
            (id, tag, payload, !bpos)
          with
          | exception Failure _ -> Error (Corrupt "bad frame body")
          | id, _, _, _ when id < 0 -> Error (Corrupt "negative request id")
          | _, _, _, consumed when consumed <> len ->
              Error (Corrupt "trailing bytes in frame body")
          | id, tag, payload, _ -> begin
              match kind_of_tag tag with
              | None -> Error (Corrupt (Printf.sprintf "unknown frame kind %d" tag))
              | Some kind ->
                  pos := p + header_bytes + len + trailer_bytes;
                  Ok { kind; id; payload }
            end
        end
      end
