(** Query evaluation over an indexed corpus: document-at-a-time (DAAT)
    candidate generation from the inverted index, weighted proximity
    best-join scoring per document, and top-k selection.

    This is the document-search loop the paper's introduction motivates:
    instead of materializing match lists for every document, only
    documents containing at least one match for {e every} query term are
    considered, and each candidate is scored by its overall best
    matchset. Candidates come from a conjunctive leapfrog intersection
    of the expansion posting-list cursors ([Pj_index.Posting_list.seek])
    — no per-term document set is ever materialized — and per-term
    maximum expansion scores give proximity-free upper bounds that skip
    or stop the scan once the top-k can no longer change (max-score
    pruning in the sense of Fagin-style early termination, sharpened to
    block granularity). *)

type t

val create : Pj_index.Inverted_index.t -> t

type hit = {
  doc_id : int;
  score : float;
  matchset : Pj_core.Matchset.t;
}

val candidates : t -> Pj_matching.Query.t -> int array
(** Document ids containing at least one match for every term, in
    increasing order: the search's leapfrog with every expansion form
    driving and no threshold, i.e. the plain conjunction. Requires
    matchers with finite expansions. A query with zero matchers has no
    candidates (empty array). *)

val search : ?k:int -> t -> Pj_core.Scoring.t -> Pj_matching.Query.t -> hit list
(** Top-[k] (default 10) documents by best {e valid} matchset score (the
    Section VI duplicate handler always applies), best first; ties
    broken toward smaller document ids. Candidates whose only matchsets
    are invalid are skipped. [k = 0] and zero-matcher queries return []
    without touching the index.

    There is one traversal: block-max pruned DAAT. Candidates come from
    a leapfrog over the term cursors, and three threshold prunes apply
    once a threshold exists (k hits held, or a bound an earlier
    fragment of {!search_cascade} proved):

    - {e Essential forms.} An expansion form whose score cannot lift any
      document past the threshold, even with every other term at its
      live maximum, stops driving the alignment; its cursor is dragged
      forward only for solved candidates. Live maxima drop as cursors
      exhaust, and the scan stops outright when even they cannot win.
    - {e Region skips.} At an aligned candidate, the shallowest
      [block_last_doc] among the driving cursors bounds a region in
      which only forms already at or before it can occur; when
      [Scoring.upper_bound] over those forms cannot win, every driving
      cursor skips past the region in one move
      ({!Pj_index.Posting_list.block_last_doc}).
    - {e Per-candidate bound.} [Scoring.upper_bound] over the expansion
      scores present in the document (proximity penalty dropped) is
      checked before any match list is built.

    Every bound dominates every matchset score in the documents it
    discards, and candidates arrive in increasing doc id, so a later
    candidate with a tied bound loses the tiebreak: the prunes are
    admissible and the result equals the unpruned conjunction's
    ([test/reference/] is the independent oracle the tests compare
    against). *)

val search_within :
  ?k:int ->
  deadline:float ->
  t ->
  Pj_core.Scoring.t ->
  Pj_matching.Query.t ->
  (hit list, [ `Timeout ]) result
(** [search] with a wall-clock budget: [deadline] is an absolute time on
    the monotonic clock (as returned by [Pj_util.Timing.monotonic_now] —
    immune to NTP steps) after which evaluation stops. The deadline is
    checked on every cursor-alignment round, before each candidate, and
    before each duplicate-unaware solve inside a candidate's
    duplicate handling, so the overrun is bounded by one solver call
    even when the intersection crosses long barren stretches of the
    posting lists or a document's terms share locations. Returns
    [Error `Timeout] when the deadline passes before the candidate list
    is exhausted — partial results are discarded, since an incomplete
    top-k is not the true top-k. A deadline already in the past times
    out immediately (before any solving). *)

val search_fragment :
  ?deadline:float ->
  ?accept:(int -> bool) ->
  ?k:int ->
  t ->
  Pj_core.Scoring.t ->
  Pj_matching.Query.t ->
  (hit list, [ `Timeout ]) result
(** {!search_within} with an optional [deadline] (without one it cannot
    time out) and a document filter. [accept] (default: everything)
    filters candidate documents before any scoring or heap insertion —
    a rejected document behaves exactly as if its postings were
    absent. *)

val search_cascade :
  ?deadline:float ->
  ?accept:(int -> bool) ->
  k:int ->
  t array ->
  Pj_core.Scoring.t ->
  Pj_matching.Query.t ->
  (hit list, [ `Timeout ]) result
(** Top-[k] over fragments whose documents are disjoint and carry
    global ids, sharing one vocabulary: the sealed segments and
    memtable of a live index ({!Pj_live.Live_index}), or the shards of
    a persisted layout ({!Shard_searcher}). The fragments run in array
    order in the calling domain, against one threshold: whenever a
    fragment holds [k] hits, its weakest score is a lower bound on the
    global k-th score (a subset's k-th best never exceeds the union's),
    and every later fragment prunes candidates — and stops its whole
    scan — whose upper bound falls {e strictly} below it (Fagin et
    al.'s threshold-algorithm bound). Strictness keeps the result
    byte-identical to {!search} over the union: fragments may come in
    any id order, so the bound may come from hits with larger doc ids,
    and a candidate that ties it could still win the smaller-id
    tiebreak and must be solved.
    The per-fragment top-k lists merge by (score desc, doc id asc).

    [accept] applies to every fragment, as in {!search_fragment} (a
    live index hides tombstoned documents with it). [deadline] applies
    to every fragment, and any fragment expiring times the whole search
    out: a partial cascade is as unsound as a partial scan. [k = 0]
    returns [Ok []] without touching the fragments. Raises
    [Invalid_argument] when [k < 0]. *)

val index : t -> Pj_index.Inverted_index.t
