(** Document collections sharing one vocabulary. *)

type t

val create : unit -> t

val of_paged :
  vocab:Pj_text.Vocab.t ->
  count:int ->
  total_tokens:int ->
  (int -> Pj_text.Document.t) ->
  t
(** A read-only corpus whose documents are fetched on demand by
    absolute id — the substrate for mmap-backed storage, where document
    token arrays decode straight off the page cache and the heap holds
    only the vocabulary. The fetch function must return a document
    whose [id] equals its argument; it is called anew on every access
    (no memoization), so it should be cheap. [total_tokens] is the
    precomputed sum of document lengths (kept out of band so
    [average_length] needs no full scan). [add_text]/[add_tokens]
    raise [Invalid_argument]. *)

val vocab : t -> Pj_text.Vocab.t

val add_text : t -> string -> Pj_text.Document.t
(** Tokenize, intern and store a document; returns it with its assigned
    id (dense, starting at 0). *)

val add_tokens : t -> string array -> Pj_text.Document.t

val add_ids : t -> int array -> Pj_text.Document.t
(** Store a document whose tokens are already interned in [vocab t]
    (e.g. by {!Pj_text.Analyzer.token_ids}); the array is adopted, not
    copied. Raises [Invalid_argument] on an id outside the vocabulary. *)

val of_stemmed_texts : string list -> t
(** A fresh corpus of the given texts, in order, normalized by
    {!Pj_text.Analyzer} through one memo: the same vocabulary ids and
    token arrays as [add_tokens] over [Analyzer.stems] of each text,
    with each distinct word stemmed and interned once. *)

val sub : t -> pos:int -> len:int -> t
(** A view of documents [pos, pos + len) sharing the parent's
    vocabulary object and keeping every document's original id — the
    substrate for doc-id-range index shards, whose postings must carry
    global ids and whose token ids must agree with the full corpus.
    In the view, [document v i] is the [i]-th *held* document, so its
    [id] is [pos + i], not [i]. Views are read-only: [add_text] and
    [add_tokens] on a view raise [Invalid_argument], because an added
    document would get a view-local id that violates the [id = pos + i]
    invariant while still interning into the shared vocabulary.
    Raises [Invalid_argument] when the range is out of bounds. *)

val size : t -> int
val document : t -> int -> Pj_text.Document.t
val iter : (Pj_text.Document.t -> unit) -> t -> unit
val fold : ('acc -> Pj_text.Document.t -> 'acc) -> 'acc -> t -> 'acc

val docs_slice : t -> pos:int -> len:int -> Pj_text.Document.t array
(** The documents [pos, pos + len) as a fresh array (ids untouched).
    Unlike [sub] this copies nothing but the array spine, so it is the
    cheap way for a live-index merger to capture a stable slice under
    the writer lock before building outside it. Raises
    [Invalid_argument] when the range is out of bounds. *)

val total_tokens : t -> int
val average_length : t -> float
