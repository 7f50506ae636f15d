(** The encoding and file primitives every proxjoin binary format
    shares — the v4 index ({!Pj_ondisk}), the live index's manifest
    and WAL ({!Pj_live}), and the wire frames ({!Pj_frame}) — so each
    gets the same LEB128 varint encoding, CRC-32 integrity check, and
    crash-safe publication discipline. Decoders raise [Failure] with a
    ["Bytecodec: ..."] message on malformed input, never a raw
    decoding exception. *)

val write_varint : Buffer.t -> int -> unit
(** LEB128 encoding of a non-negative integer (at most 9 bytes). *)

val read_varint : string -> pos:int ref -> int
(** Decode at [!pos], advancing it. The result is never negative.
    Raises [Failure] on truncation, or on overflow: a varint whose 9th
    byte is above [0x3f] does not fit a non-negative OCaml [int]. *)

val write_string : Buffer.t -> string -> unit
(** Length-prefixed (varint) string. *)

val read_string : string -> pos:int ref -> string
(** Decode at [!pos], advancing it. Raises [Failure] on a truncated
    string, and on a length prefix that overflows or is negative. *)

val crc32 : ?pos:int -> ?len:int -> string -> int32
(** Standard CRC-32 (zlib/PNG polynomial) of a substring ([pos]
    defaults to 0, [len] to the rest of the string). *)

val crc_table : int array
(** The 256-entry byte table behind {!crc32}, for checksumming data
    that is not an OCaml string (a mapped region). Read-only. *)

val write_file_atomic :
  ?fp_write:string -> ?fp_rename:string -> string -> Buffer.t -> unit
(** Crash-safe file publication: write the buffer to [path.tmp], fsync,
    atomically rename over [path], then best-effort fsync the directory.
    A crash at any moment leaves any pre-existing [path] intact.
    [fp_write]/[fp_rename] name optional failpoint sites hit just
    before the write and the rename. Raises [Sys_error] on I/O
    failure. *)

val read_file : string -> string
(** The whole file as a string. Raises [Sys_error]. *)
