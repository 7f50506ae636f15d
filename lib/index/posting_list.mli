(** Posting lists: all postings of one term, sorted by document id.

    Supports the operations the paper's footnote 1 relies on: deriving a
    match list for a concept by merging the posting lists of several
    specific terms (e.g. "PC maker" from "lenovo", "dell", ...). *)

type t

val empty : t
val of_postings : Posting.t list -> t
(** Builds a list from unordered postings; postings of the same document
    are merged (position arrays unioned). *)

val document_frequency : t -> int
(** Number of documents containing the term. *)

val collection_frequency : t -> int
(** Total number of occurrences across documents. *)

val find : t -> int -> Posting.t option
(** Posting for a document id (binary search). *)

val iter : (Posting.t -> unit) -> t -> unit
(** Visit postings in increasing document id. *)

val fold : ('acc -> Posting.t -> 'acc) -> 'acc -> t -> 'acc

val doc_ids : t -> int array

val union : t -> t -> t
(** Merge two posting lists (documents present in either; positions
    unioned) — the match-list merging primitive of footnote 1. *)

val to_list : t -> Posting.t list

val of_sorted_array : Posting.t array -> t
(** A list over postings already sorted by strictly increasing document
    id: O(n) validation, no sort, and the array is adopted as-is (the
    caller must not mutate it afterwards). Raises [Invalid_argument]
    when the order does not hold. *)

val to_sorted_array : t -> Posting.t array
(** The postings in increasing document id, as the list's own array —
    no copy, so a bulk reader (the on-disk writer) walks them
    directly. The caller must not mutate it. *)

val reject : (int -> bool) -> t -> t
(** [reject f t] keeps the postings whose document id does {e not}
    satisfy [f] — the tombstone-purge primitive of segment compaction.
    Returns [t] itself (no copy) when nothing matches. *)

val append_disjoint : t -> t -> t
(** [append_disjoint a b] splices two lists whose doc-id ranges are
    disjoint and ordered (every id of [a] below every id of [b]) in one
    O(df) array append — how adjacent segments merge a shared term.
    Raises [Invalid_argument] when the ranges overlap. *)

(** {1 Cursors}

    Document-at-a-time traversal: a cursor walks the postings in
    increasing document id and supports a galloping [seek], so a
    conjunctive intersection of several lists costs O(min list length ×
    log max list length) comparisons instead of materializing any
    per-term document set (the substrate for
    [Pj_engine.Searcher]'s DAAT candidate generation). *)

type cursor

val cursor : t -> cursor
(** A fresh cursor positioned on the first posting. *)

val cursor_prefix : Posting.t array -> len:int -> cursor
(** A fresh array cursor over the first [len] entries of [a] only —
    same galloping traversal as {!cursor}, but entries at index
    [>= len] are invisible (including to [block_last_doc]). The
    substrate for snapshot isolation over a growing postings array:
    the live memtable hands out cursors over the committed prefix
    while its single writer appends beyond it. The visible prefix
    must already be sorted by strictly increasing document id.
    Raises [Invalid_argument] when [len] is out of range. *)

val custom :
  current:(unit -> Posting.t option) ->
  current_doc:(unit -> int) ->
  next:(unit -> unit) ->
  seek:(int -> unit) ->
  block_last_doc:(unit -> int) ->
  cursor
(** A cursor over postings that live somewhere other than an in-memory
    array — the extension point for storage engines (the mmap-backed
    block reader of [Pj_ondisk] streams compressed blocks through this).
    The closures must respect the same contract as the array cursor:
    documents visited in strictly increasing id order, [current_doc]
    returning [-1] once exhausted, [seek] never moving backwards. *)

val current : cursor -> Posting.t option
(** The posting under the cursor; [None] once exhausted. *)

val current_doc : cursor -> int
(** Document id under the cursor, or [-1] once exhausted — the
    allocation-free fast path of [current] for the intersection loop
    (document ids are non-negative). *)

val next : cursor -> unit
(** Advance by one posting; no-op once exhausted. *)

val seek : cursor -> int -> unit
(** [seek c target] advances to the first posting with
    [doc_id >= target] (exhausting the cursor when none remains), by
    galloping search from the current position. Never moves backwards:
    a [target] at or before the current document id is a no-op. On an
    in-memory cursor it allocates nothing. *)

(** {1 Block boundaries}

    The substrate for block-granular region skips: a traversal that
    can rule out every document up to a block's last id skips past the
    whole block. The on-disk format's skip table stores each block's
    last document; in-memory cursors derive the same boundaries by
    index arithmetic over [block_size]-posting runs. Nothing stores a
    per-block score ceiling: match scores are static expansion-form
    scores, so term frequency would bound nothing (DESIGN §12). *)

val block_size : int
(** Postings per block (same granularity as the on-disk format): 128. *)

val block_last_doc : cursor -> int
(** Last (visible) document id of the cursor's current block — the
    "next-shallow" skip target of block-max traversal; [-1] once
    exhausted. A prefix cursor clamps this to its visible prefix. *)
