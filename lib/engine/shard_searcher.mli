(** Scatter-gather top-k search over a sharded index.

    One query fans out across the shards of a
    {!Pj_index.Sharded_index.t}, each shard running the block-max
    pruned DAAT search ({!Searcher.search_fragment}) on
    {!Pj_util.Parallel} domains. The fragments cooperate through one
    [Atomic.t] threshold — the best known lower bound on the global
    k-th score, in the spirit of Fagin-style threshold algorithms — so
    every shard prunes against the *global* weakest held hit, not just
    its own. Per-shard top-k lists then merge by (score desc, doc id
    asc) into a final top-k that is byte-identical to
    {!Searcher.search} over the monolithic index: same hits, same
    scores, same order, same smaller-doc-id tie-breaks (enforced by
    [test/engine/test_shard_oracle.ml] across all three scoring
    families).

    Why the merge is exact: shards share the corpus vocabulary and
    keep global doc ids ({!Pj_index.Corpus.sub}), so each candidate's
    match-list problem — hence its score and matchset — is computed
    from the same data the monolithic searcher sees; the shared
    threshold only discards documents *strictly* below a proven lower
    bound on the global k-th score; and a fragment's local heap only
    evicts documents beaten by k same-shard documents that also beat
    them globally. *)

type t

val create : Pj_index.Sharded_index.t -> t

val n_shards : t -> int
val sharded_index : t -> Pj_index.Sharded_index.t

val search :
  ?k:int ->
  t ->
  Pj_core.Scoring.t ->
  Pj_matching.Query.t ->
  Searcher.hit list
(** Same contract (and same result, bit for bit) as
    {!Searcher.search} on the unsharded index. *)

val search_within :
  ?k:int ->
  deadline:float ->
  t ->
  Pj_core.Scoring.t ->
  Pj_matching.Query.t ->
  (Searcher.hit list, [ `Timeout ]) result
(** Same contract as {!Searcher.search_within}; the deadline applies to
    every fragment, and any fragment expiring times the query out
    (a partial scatter is as unsound as a partial scan). *)

type degraded = {
  hits : Searcher.hit list;  (** merged top-k of the surviving shards *)
  failed : int list;
      (** shard indexes that raised or blew the deadline, ascending;
          [[]] means the result is complete and byte-identical to
          {!search_within}'s [Ok] *)
}

val search_degraded :
  ?k:int ->
  deadline:float ->
  t ->
  Pj_core.Scoring.t ->
  Pj_matching.Query.t ->
  (degraded, [ `Timeout ]) result
(** Fault-isolated {!search_within}: a per-shard leg that raises (any
    exception, including an armed ["shard.<i>"]
    {!Pj_util.Failpoint}) or misses the deadline is dropped from the
    merge and reported in [failed] instead of propagating. When no
    shard fails the result is byte-identical to {!search_within} —
    the healthy path is the same fragments, shared prune threshold,
    and merge. [Error `Timeout] only when {e every} shard blew the
    deadline (the degenerate case indistinguishable from a monolithic
    timeout). When a shard fails before publishing into the shared
    threshold — e.g. at its entry failpoint — the surviving merge
    equals the monolithic top-k over exactly the surviving doc
    ranges; a shard dying mid-scan may have published a bound that
    pruned survivors, in which case hits remain genuine and exactly
    scored but the list may be shorter than that oracle. *)
