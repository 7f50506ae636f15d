(* Shared constants of the PJX4 on-disk index format. See DESIGN.md §11
   for the byte-layout diagram.

   File =
     magic "PJX4" | u8 version (5)
     payload:
       vocab    : varint n_words, then per word varint length + bytes
       layout   : varint n_shards, then per shard varint doc count
       doc index: n_docs × u64le absolute offset of the doc record
       doc data : per doc, varint length + length × varint token id
       dict     : n_words × 12 bytes (u64le blob offset | u32le df);
                  offset 0 = no postings
       blobs    : per term with df > 0, a [Codec] term blob
     trailer:
       11 × u64le (section offsets and totals, see [Trailer])
       u32le CRC-32 of payload + the 11 trailer words
       end magic "4XJP"

   The trailer is fixed-size and lives at the end, so opening reads
   O(1) bytes plus the vocabulary — never the postings or documents. *)

let magic = "PJX4"
let end_magic = "4XJP"
let version = 5
let header_size = 5 (* magic + version byte: payload starts here *)
let dict_entry_size = 12
let trailer_words = 11
let trailer_size = (trailer_words * 8) + 4 + 4 (* words + CRC + end magic *)

(* Why a file whose version byte reads [v] is refused. Version 4 term
   blobs held one more byte per posting and per skip entry; nothing
   converts them, so the advice is to rebuild. *)
let version_error v =
  Printf.sprintf
    "unsupported PJX4 format version %d (this build reads version %d); \
     rebuild the index from its source text"
    v version
