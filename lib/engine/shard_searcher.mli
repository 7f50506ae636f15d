(** Top-k search over the shards of a {!Pj_index.Sharded_index.t}: one
    {!Searcher.t} per shard, run as one {!Searcher.search_cascade} in
    shard order. Shards share the corpus vocabulary and keep global doc
    ids ({!Pj_index.Corpus.sub}), so the result is byte-identical to
    {!Searcher.search} over the monolithic index: same hits, same
    scores, same order, same smaller-doc-id tie-breaks (enforced by
    [test/engine/test_shard_oracle.ml] across all three scoring
    families). *)

type t

val create : Pj_index.Sharded_index.t -> t

val search :
  ?k:int ->
  t ->
  Pj_core.Scoring.t ->
  Pj_matching.Query.t ->
  Searcher.hit list
(** Same contract (and same result, bit for bit) as
    {!Searcher.search} on the unsharded index. *)
