(** A positional inverted index partitioned into contiguous doc-id
    ranges, each range an {!Inverted_index.t} over the documents of one
    shared corpus. Shard postings keep global document ids and the
    shared vocabulary, so a per-shard search returns exactly the hits
    (ids, scores, matchsets) the monolithic index would for the same
    documents. [Pj_engine.Shard_searcher] searches one. *)

type t

val of_prebuilt :
  Corpus.t ->
  counts:int array ->
  shard_of:(int -> pos:int -> len:int -> Inverted_index.t) ->
  t
(** Assemble from already-constructed shard indexes: [shard_of i ~pos
    ~len] must return an index over exactly the documents [pos, pos +
    len) carrying global ids — e.g. a provider-backed range view of one
    mmap file ([Pj_ondisk.Mapped_index.shard_index]) or an
    [Inverted_index.build] over [Corpus.sub]. Shard [i] holds the next
    [counts.(i)] documents; nothing is rebuilt. Raises
    [Invalid_argument] when [counts] is empty or does not sum to the
    corpus size. *)

val n_shards : t -> int

val shard : t -> int -> Inverted_index.t
(** The [i]-th shard's index. Its postings carry global document ids. *)
