(** The legacy corpus format ("PJIX" v1–v3), read-only: [compact]
    loads these files to migrate them to the v4 format
    ([Pj_ondisk.Writer]); nothing writes them any more.

    Layout: a magic header and version, the vocabulary as
    length-prefixed strings, then each document's token ids — integers
    throughout are LEB128 varints. Version 2 appended a little-endian
    CRC-32 footer over the payload, so a truncated or bit-flipped file
    fails with a clear error instead of decoding garbage. Version 3
    additionally records the shard layout (shard count, then per-shard
    document counts of the contiguous doc-id ranges) at the end of the
    CRC-protected payload; v1/v2 files (no layout) load as a single
    shard. The inverted index is rebuilt on load.

    The module also holds the encoding and file primitives every
    proxjoin file shares. *)

val load_corpus : string -> Corpus.t
(** Read a corpus back. Raises [Failure] with a ["Storage: ..."]
    message on any malformed, truncated or wrong-version file (the
    CRC footer catches silent corruption; no raw decoding exception
    escapes), [Sys_error] on I/O failure. *)

val load_sharded : string -> Sharded_index.t
(** Reopen with the persisted shard layout; v1/v2 files load as one
    shard covering every document. *)

(** {1 Encoding and file primitives}

    Shared by every proxjoin file — the v4 index ({!Pj_ondisk}), the
    live index's manifest and WAL ({!Pj_live}) — so each gets the same
    varint encoding, CRC-32 integrity footer, and crash-safe
    publication discipline. *)

val write_varint : Buffer.t -> int -> unit
(** LEB128 encoding of a non-negative integer. *)

val read_varint : string -> pos:int ref -> int
(** Decode at [!pos], advancing it. Raises [Failure] on truncation or
    overflow. *)

val write_string : Buffer.t -> string -> unit
(** Length-prefixed (varint) string. *)

val read_string : string -> pos:int ref -> string
(** Decode at [!pos], advancing it. Raises [Failure] on truncation. *)

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
