(** The binary protocol's frame codec: a pure, fuzz-testable
    encoder/decoder over strings. Channel/socket IO lives in {!Wire}.

    Every frame is:

    {v
    offset  size  field
    0       1     magic byte 0xB1 (the sniff byte -- see {!Wire})
    1       2     "PJ"
    3       1     version (currently 1)
    4       4     body length, signed 32-bit big-endian
    8       n     body: varint request id, varint kind,
                  length-prefixed payload (Bytecodec string)
    8+n     4     CRC-32 of the body, big-endian
    v}

    The body reuses {!Pj_util.Bytecodec}'s LEB128 varint and
    length-prefixed string primitives, so every proxjoin binary
    format — on-disk index, WAL records, wire frames — shares one
    integer encoding. The payload of a [Request] is exactly one text
    protocol request line (without the newline), and the payload of a
    [Response] is the corresponding response line: the binary protocol
    changes the framing and adds request-id pipelining, not the
    request grammar.

    The declared body length is bounded ([max_body] — negative or
    oversized lengths are rejected before any allocation), mirroring
    how {!Pj_server.Protocol.max_line_bytes} bounds text lines. *)

type kind =
  | Request  (** client -> server: payload is a request line *)
  | Response  (** server -> client: payload is the response line *)
  | Error_frame
      (** server -> client: the connection is being failed; payload is
          an [ERR ...] line. Sent once (request id 0 when the broken
          frame's id is unrecoverable), then the server closes. *)

type t = {
  kind : kind;
  id : int;
      (** Request id, echoed verbatim in the response so many requests
          can be in flight on one connection and answered out of
          order. Non-negative (a varint on the wire). *)
  payload : string;
}

type error =
  | Truncated of string
      (** The input ends mid-frame (torn header, body or CRC). *)
  | Corrupt of string
      (** Bad magic, unsupported version, CRC mismatch, or a body that
          does not decode to (id, kind, payload) exactly. *)
  | Oversized of int
      (** The declared body length is negative or exceeds [max_body];
          carries the declared length. Detected from the fixed-size
          header, before any body allocation. *)

val magic_byte : char
(** [0xB1]. Deliberately > 0x7f: every text protocol request starts
    with an ASCII letter, so the first byte of a connection
    classifies it (see {!Wire.sniff}). *)

val version : int
val header_bytes : int
(** Fixed header size: magic + "PJ" + version + body length = 8. *)

val trailer_bytes : int
(** CRC-32 size: 4. *)

val max_body_bytes : int
(** Default body-length bound (1 MiB): comfortably above the largest
    legitimate response (k = 10000 hits at full float precision) and
    far below anything that could pressure the allocator. *)

val encode : Buffer.t -> t -> unit
(** Append the frame's wire image. Raises [Invalid_argument] on a
    negative id or a payload longer than {!max_body_bytes}. *)

val to_string : t -> string
(** [encode] into a fresh string. *)

val decode_body_length : string -> pos:int -> (int, error) result
(** Validate the fixed-size header at [pos] (magic, version, length
    bounds against {!max_body_bytes}) and return the declared body
    length. [Truncated] if fewer than {!header_bytes} bytes remain.
    The frame's total wire size is
    [header_bytes + length + trailer_bytes]. *)

val decode : ?max_body:int -> string -> pos:int ref -> (t, error) result
(** Decode one frame at [!pos], advancing it past the frame on
    success ([!pos] is untouched on error). [?max_body] tightens (or
    relaxes) the body-length bound; default {!max_body_bytes}. *)
