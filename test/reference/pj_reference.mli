(** Reference top-k search, the oracle every search test and the top-k
    bench compare against; and the reference index build, the oracle of
    the counting builder ({!Pj_index.Inverted_index.build}).

    Deliberately naive and independent of {!Pj_engine.Searcher}'s
    traversal: candidates are the set intersection of each term's
    document set (union over its expansion forms' posting lists), every
    candidate is solved from scratch with
    {!Pj_matching.Match_builder.from_index} and
    [Pj_core.Best_join.solve ~dedup:true], and the hits are sorted in
    full. No cursor, no threshold, no heap. *)

val candidates : Pj_index.Inverted_index.t -> Pj_matching.Query.t -> int array
(** Documents with at least one match for every term, increasing; empty
    for a query with zero matchers. *)

val search :
  k:int ->
  Pj_index.Inverted_index.t ->
  Pj_core.Scoring.t ->
  Pj_matching.Query.t ->
  Pj_engine.Searcher.hit list
(** The [k] best candidates by best valid matchset score, best first,
    ties toward smaller doc ids — {!Pj_engine.Searcher.search}'s
    contract. *)

(** {1 Index build}

    The accumulate-then-sort build: per token, a growable vector of
    (document, positions vector) pairs, then every positions array
    copied and sorted ([Pj_index.Posting.make]) and every list sorted
    and merged ([Pj_index.Posting_list.of_postings]). *)

val index_lists :
  ?skip:(int -> bool) ->
  Pj_text.Document.t array ->
  (int * Pj_index.Posting_list.t) list
(** Every token that occurs in the documents (those whose id satisfies
    [skip] left out), with its posting list, in increasing token id.
    Documents must come in increasing id order. *)

val build_index : Pj_index.Corpus.t -> Pj_index.Inverted_index.t
(** The reference index over every document of the corpus, served
    through {!Pj_index.Inverted_index.of_provider}: one slot per
    vocabulary token, as {!Pj_index.Inverted_index.build}. Block
    sidecars are built lazily. *)

(** {1 Shard layouts} *)

val balanced_counts : shards:int -> int -> int array
(** [max 1 shards] contiguous range sizes over [n] documents, differing
    by at most one (the first [n mod shards] ranges get the extra
    document); trailing ranges are empty when [shards > n]. *)

val sharded : shards:int -> Pj_index.Corpus.t -> Pj_index.Sharded_index.t
(** The corpus in {!balanced_counts} ranges, each range an
    {!Pj_index.Inverted_index.build} over its {!Pj_index.Corpus.sub}
    view: global doc ids, shared vocabulary. *)
