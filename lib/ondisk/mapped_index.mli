(** Serving a v4 index file in place, zero-copy.

    [open_file] maps the file and reads only its fixed-size trailer,
    the vocabulary and the shard layout — O(1) in the number of
    documents and postings, milliseconds for a file that takes seconds
    to load into the heap. Everything else (documents, dictionary,
    posting blocks) stays on disk and is decoded on demand through the
    page cache: {!index} and {!shard_index} wrap the mapping in
    provider-backed [Pj_index.Inverted_index] values, so the DAAT
    searcher and the server run on it unchanged and return
    byte-identical results to an in-memory index over the same
    corpus.

    Integrity: opening validates magics, the format version and the
    section-offset chain; it does {e not} checksum the payload (that
    would cost a full-file scan). Call {!verify} for the CRC and
    {!check} for a deep structural audit. A file truncated or
    corrupted anywhere fails these — and every lazy read is
    bounds-checked, so even an unverified corrupt file raises
    [Failure "Ondisk: ..."] rather than anything undefined. *)

type t

val open_file : string -> t
(** Raises [Failure "Ondisk: ..."] on malformed files, [Sys_error] /
    [Unix.Unix_error] on I/O failure. *)

val path : t -> string

val corpus : t -> Pj_index.Corpus.t
(** Paged corpus: the vocabulary lives on the heap, documents decode
    from the mapping on each access. *)

val index : t -> Pj_index.Inverted_index.t
(** The whole file as one provider-backed index. Its terms are not
    enumerable ([pr_iter = None]): postings stay on disk. *)

val counts : t -> int array
(** The persisted shard layout (defaults to one shard). Searches ignore
    it ({!index} serves the whole file); [compact] carries it into the
    file it writes. *)

val shard_index : t -> pos:int -> len:int -> Pj_index.Inverted_index.t
(** A provider-backed index over documents [pos, pos + len) only —
    observationally an [Inverted_index.build] over [Corpus.sub]. *)

val stats : t -> Pj_index.Inverted_index.stats
(** From the trailer; O(1). *)

val vocab : t -> Pj_text.Vocab.t

val term_reader : t -> int -> Codec.reader option
(** The raw term blob of a token id ([None] when it has no postings) —
    the inspection hook for per-term summaries ([Codec.n_blocks],
    [Codec.last_doc]). *)

val verify : t -> unit
(** CRC-32 of the payload against the footer. O(file size). Raises
    [Failure] on mismatch. *)

val check_dictionary : t -> unit
(** Every dictionary entry names a blob inside the postings section,
    has [df > 0], and its last posting (from the skip table) names a
    document of the file. O(vocabulary), decodes no block — cheap
    enough for every live segment recovery. Raises [Failure]. *)

val check : t -> unit
(** [verify] plus a full structural audit: every document decodes,
    every dictionary entry chains to a well-formed blob, every skip
    table matches its blocks, and no posting names a document at or
    past the file's document count. Raises [Failure] on any defect. *)

type info = {
  version : int;
  n_docs : int;
  n_shards : int;
  n_words : int;
  total_tokens : int;
  n_postings : int;
  n_positions : int;
  n_blocks : int;  (** across all term blobs *)
  file_bytes : int;
  vocab_bytes : int;
  docs_bytes : int;  (** doc offset index + token runs *)
  dict_bytes : int;
  postings_bytes : int;  (** all term blobs (skip tables + blocks) *)
  mem_postings_bytes : int;
      (** estimated heap footprint of the same postings as in-memory
          [Posting_list] arrays — the denominator of the on-disk
          compression ratio *)
}

val info : t -> info
(** Section sizes and totals; O(vocabulary) (it scans the dictionary
    to count blocks), touches no posting blocks. *)
