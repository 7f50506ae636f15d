(** Positional inverted index over a corpus.

    Maps token ids to posting lists. The paper assumes match lists can
    be "derived from precomputed inverted lists" (Section II); this is
    that precomputation. Match lists for a document are obtained by
    looking up the postings of every token related to a query term and
    merging them with per-token scores (see [Pj_matching.Match_builder]). *)

type t

val build : Corpus.t -> t
(** Index every document of the corpus (dense layout: one posting-list
    slot per vocabulary token). *)

val build_docs : ?skip:(int -> bool) -> Corpus.t -> Pj_text.Document.t array -> t
(** Index exactly the given documents of [corpus] — the substrate for
    live memtables and sealed segments, which cover a contiguous doc-id
    range of a corpus that keeps growing. Documents must be in strictly
    increasing id order; ids and token ids are global, exactly as in
    [Corpus.sub] shards, so per-range indexes agree with a monolithic
    [build]. [skip id] filters documents out (tombstone compaction).
    Uses a sparse layout keyed on the tokens that actually occur, so
    cost is O(tokens in [docs]) rather than O(global vocabulary) —
    [vocabulary_size] therefore reports distinct {e indexed} tokens for
    such an index, not the corpus vocabulary size. *)

type stats = {
  n_tokens : int;    (** distinct indexed tokens *)
  n_postings : int;  (** (token, document) pairs across all lists *)
  n_positions : int; (** total stored occurrence locations *)
}

type provider = {
  pr_postings : int -> Posting_list.t;
      (** full materialization of one term's list ([Posting_list.empty]
          when the token has none) *)
  pr_cursor : int -> Posting_list.cursor;
      (** streaming traversal of one term's list; must visit the same
          postings as [pr_postings], in increasing doc id *)
  pr_positions : token:int -> doc_id:int -> int array;
  pr_document_frequency : int -> int;
  pr_n_tokens : int;            (** distinct indexed tokens *)
  pr_stats : unit -> stats;
  pr_iter : ((int -> Posting_list.t -> unit) -> unit) option;
      (** enumerate every (token, list) pair with postings — arbitrary
          order, each token once — or [None] when the engine cannot
          afford enumeration (the on-disk layouts); [concat_adjacent]
          then refuses the index *)
}
(** The plug-in surface for external storage engines: an index whose
    postings live outside the OCaml heap (e.g. the block-compressed
    mmap segments of [Pj_ondisk]) implements these and the rest of the
    system — DAAT searcher, sharding, serving — runs unchanged. *)

val of_provider : Corpus.t -> provider -> t
(** An index whose reads are delegated to [provider]. The corpus
    supplies the vocabulary (word/token mapping); it may itself be a
    paged view served from the same storage engine. *)

val postings : t -> int -> Posting_list.t
(** Posting list of a token id ([Posting_list.empty] when absent).
    On a provider-backed index this materializes the whole list —
    prefer [cursor] on hot paths. *)

val postings_of_word : t -> string -> Posting_list.t
(** Posting list of a raw token (lookup through the corpus vocabulary). *)

val cursor : t -> int -> Posting_list.cursor
(** Streaming cursor over a token's postings — the DAAT entry point.
    In-memory stores answer with an array cursor; provider-backed
    stores stream straight off their own layout (an exhausted cursor
    when the token is absent). *)

val cursor_of_word : t -> string -> Posting_list.cursor

val positions_in : t -> token:int -> doc_id:int -> int array
(** Occurrence locations of a token in one document (empty when absent). *)

val document_frequency : t -> int -> int

val document_frequency_of_word : t -> string -> int
(** [document_frequency] through the vocabulary, without materializing
    the posting list (provider-backed indexes answer from their
    dictionary). *)

val vocabulary_size : t -> int
(** Number of distinct indexed tokens. *)

val stats : t -> stats
(** Size accounting over every posting list — the denominator for
    per-query traversal-cost reporting (a set-based candidate pass
    touches all [n_postings] of the query's terms; the DAAT cursor pass
    is sublinear in it). O(vocabulary) per call. *)

val corpus : t -> Corpus.t

val concat_adjacent : ?skip:(int -> bool) -> t -> t -> t
(** Merge two indexes over adjacent, disjoint doc-id ranges — every
    document of the first strictly below every document of the second,
    over the same corpus — by per-term posting-list splicing:
    O(surviving postings) array appends, position arrays shared with
    the sources, instead of [build_docs]'s O(tokens) re-accumulation.
    [skip id] drops that document's postings (tombstone purge). The
    result is byte-equivalent to [build_docs] over the union range.
    Every heap index enumerates its terms ([build], [build_docs], a
    [Postings_builder] view, an earlier [concat_adjacent]); raises
    [Invalid_argument] when either side cannot (a provider without
    [pr_iter]). *)
