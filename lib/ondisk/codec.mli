(** Block compression of posting lists — the PJX4 postings codec.

    One term's postings are packed into a {e term blob}: a skip table
    of fixed-width entries (one per block) followed by the blocks
    themselves, each holding up to {!block_size} documents as
    delta-varint doc ids, the term frequency and delta-varint
    occurrence positions. The skip entry carries the block's last
    document id and its byte offset — everything a cursor needs to
    leap whole blocks during a galloping seek, and the block boundary
    a block-max traversal skips to.

    Doc-id deltas chain {e across} blocks: the first delta of block
    [b] is relative to block [b-1]'s last document id, which the skip
    table provides, so a seek can land in the middle of the blob
    without decoding what precedes it. *)

val block_size : int
(** Documents per block (128; the final block may be short). *)

val n_blocks : df:int -> int
(** Number of blocks of a list with [df] postings —
    [ceil (df / block_size)]; the blob stores no explicit count. *)

(** {1 Encoding} *)

val encode : Buffer.t -> Pj_index.Posting.t array -> unit
(** Append the term blob of the postings, which must be sorted by
    strictly increasing non-negative document id with ids at most
    [0xFFFFFFFF] (the skip table stores them as u32). Raises
    [Invalid_argument] otherwise. [df = 0] appends nothing. *)

(** {1 Decoding} *)

type reader = {
  buf : Layout.buf;
  blob : int;  (** file offset of the term blob (its skip table) *)
  df : int;
}
(** A term blob in a mapped file. All decoding is lazy: constructing a
    reader or cursor touches only skip entries, never whole blocks. *)

val cursor : reader -> Pj_index.Posting_list.cursor
(** A fresh streaming cursor over the blob, positioned on the first
    posting (exhausted when [df = 0]). Decoding failures — a truncated
    or corrupt blob, a varint that overflows a 63-bit [int] — raise
    [Failure "Ondisk: ..."].

    A posting with a one-byte doc delta and a one-byte tf, whose bytes
    fit in the buffer even at 9 bytes a position varint, is decoded
    after one bounds check; [current] decodes a position run the same
    way. Every other posting takes the checked [Layout] accessors. The
    two paths accept the same bytes and raise the same failures. *)

val cursor_in_range : reader -> lo:int -> hi:int -> Pj_index.Posting_list.cursor
(** The blob restricted to documents [lo, hi) — the per-shard view of
    a monolithic postings section. Seeks to [lo] on creation; reports
    exhaustion at the first document [>= hi], and clamps
    [block_last_doc] to [hi - 1]. *)

val decode : reader -> Pj_index.Posting_list.t
(** Materialize the whole list (for [Inverted_index.postings]). *)

val count_in_range : reader -> lo:int -> hi:int -> int
(** Documents of the blob in [lo, hi) — a per-shard document
    frequency. Uses the skip table to count interior blocks without
    decoding them; only blocks straddling a boundary are walked. *)

val blob_length : reader -> int
(** Total byte length of the blob (skip table + blocks), recomputed
    from the last skip entry — for inspection and stats. *)

val last_doc : reader -> int
(** The list's last document id, read from its final skip entry — O(1).
    The list must be non-empty. *)

val check_blob : reader -> unit
(** Decode every block completely and verify the skip table against
    it (offsets, last doc ids, doc counts, monotone ids).
    Raises [Failure "Ondisk: ..."] on any inconsistency — the
    deep-verification path behind [inspect] and the fuzz tests. *)
