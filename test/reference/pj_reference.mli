(** Reference top-k search, the oracle every search test and the top-k
    bench compare against.

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
