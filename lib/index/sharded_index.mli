(** A positional inverted index partitioned into document shards.

    Documents are split by doc-id range into [S] contiguous shards,
    each holding its own {!Inverted_index.t} over a {!Corpus.sub} view
    of the one shared corpus. Because the views share the corpus
    vocabulary and keep global document ids, a per-shard search returns
    exactly the hits (ids, scores, matchsets) the monolithic index
    would for the same documents — shard outputs merge without any id
    or token remapping, and a one-shard partition is observationally
    identical to {!Inverted_index.build}. This is the index layout
    behind [Pj_engine.Shard_searcher]'s scatter-gather search. *)

type t

val build : shards:int -> Corpus.t -> t
(** Partition into [max 1 shards] contiguous doc-id ranges whose sizes
    differ by at most one (the first [n mod shards] ranges get the
    extra document). With more shards than documents, trailing shards
    are empty — legal, they answer every query with no candidates. *)

val build_with_counts : Corpus.t -> int array -> t
(** Explicit layout: shard [i] holds the next [counts.(i)] documents.
    Raises [Invalid_argument] when [counts] is empty or does not sum to
    the corpus size. *)

val of_prebuilt :
  Corpus.t ->
  counts:int array ->
  shard_of:(int -> pos:int -> len:int -> Inverted_index.t) ->
  t
(** Assemble from already-constructed shard indexes: [shard_of i ~pos
    ~len] must return an index over exactly the documents [pos, pos +
    len) carrying global ids — e.g. a provider-backed range view of one
    mmap segment ([Pj_ondisk.Mapped_index.shard_index]). Layout
    validation as in [build_with_counts]; nothing is rebuilt. *)

val n_shards : t -> int

val shard : t -> int -> Inverted_index.t
(** The [i]-th shard's index. Its postings carry global document ids. *)

val range : t -> int -> int * int
(** [(first doc id, document count)] of the [i]-th shard. *)

val counts : t -> int array
(** Per-shard document counts, in shard order. *)

val shard_of_doc : t -> int -> int option
(** Which shard holds a document id, [None] when out of range. *)

val corpus : t -> Corpus.t
(** The full shared corpus (vocabulary + every document). *)

val stats : t -> Inverted_index.stats
(** Merged size accounting: postings and positions sum across shards;
    [n_tokens] is the shared vocabulary size (every shard's lists array
    spans the full vocabulary). *)
