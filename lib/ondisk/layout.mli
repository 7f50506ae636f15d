(** Zero-copy byte access to a mapped index file.

    An opened file is a read-only [Bigarray] over the kernel page
    cache ([Unix.map_file]): opening costs one [mmap] syscall
    regardless of file size, bytes are faulted in on first touch, and
    the OCaml heap never holds a copy. Every accessor is
    bounds-checked and fails with a descriptive [Failure "Ondisk:
    ..."] — a truncated or corrupt file can never surface a raw
    [Invalid_argument] from the underlying array. *)

type buf = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

val map_file : string -> buf
(** Map a whole file read-only. O(1) in the file size. Raises
    [Failure] on an empty file (nothing to map), [Sys_error] /
    [Unix.Unix_error] on I/O failure. *)

val of_string : string -> buf
(** Copy a string onto a buffer — for decoding a format through the
    same accessors when the bytes were read conventionally rather than
    mapped. Fine for an empty string (unlike {!map_file}). *)

val length : buf -> int

val u8 : buf -> int -> int
(** Byte at an offset. Raises [Failure "Ondisk: ..."] out of bounds. *)

val u32le : buf -> int -> int
(** Little-endian unsigned 32-bit word (fits an OCaml [int]). *)

val u64le : buf -> int -> int
(** Little-endian 64-bit word; raises [Failure] when the value
    overflows a 63-bit OCaml [int] (no real file is that large — such
    a word is corruption). *)

val read_varint : buf -> pos:int ref -> int
(** LEB128 at [!pos], advancing it — same encoding and limits as
    [Pj_util.Bytecodec.read_varint]: at most 9 bytes, the 9th at most
    [0x3f], so the value is a non-negative 63-bit [int]. Raises
    [Failure "Ondisk: truncated varint"] when the buffer ends first and
    [Failure "Ondisk: varint overflow"] on a 9th byte above [0x3f]. *)

val skip_varints : buf -> pos:int ref -> int -> unit
(** [skip_varints b ~pos n] advances [!pos] past [n] LEB128 varints
    without decoding them — by counting terminator bytes. Accepts
    exactly what {!read_varint} accepts and raises the same
    [Failure]s. *)

val sub_string : buf -> pos:int -> len:int -> string
(** Copy a range onto the heap (for vocabulary words). *)

val crc32 : buf -> pos:int -> len:int -> int32
(** Standard CRC-32 (zlib polynomial) of a range — bit-identical to
    [Pj_util.Bytecodec.crc32] on the same bytes, computed without
    copying the range to a string. *)
