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
    once a threshold exists (k hits held, or a shared [threshold] from
    {!search_fragment}):

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
  ?threshold:float Atomic.t ->
  ?accept:(int -> bool) ->
  ?k:int ->
  t ->
  Pj_core.Scoring.t ->
  Pj_matching.Query.t ->
  (hit list, [ `Timeout ]) result
(** One shard's leg of a scatter-gather search (see
    {!Shard_searcher}): [search_within] over this index, with an
    optional [threshold] shared between concurrent fragments of one
    query. Whenever this fragment holds [k] hits, it publishes its
    weakest score into [threshold] (monotonically, with a
    compare-and-set maximum); every fragment prunes candidates — and
    stops its whole scan — whose upper bound falls *strictly* below
    the shared value. Strictness is what keeps the merge
    byte-identical to the monolithic search: the shared threshold may
    come from hits with smaller doc ids in another shard, so a tied
    bound could still win the global smaller-id tiebreak and must be
    solved (the within-fragment prunes keep their tie-aware checks,
    where increasing-doc-id order makes ties safe). A fragment's k-th
    best score never exceeds the global k-th best (its documents are a
    subset), so pruning strictly below the shared threshold can never
    discard a global top-k hit. Without [threshold] this is exactly
    [search_within]; without [deadline] it cannot time out.

    [accept] (default: everything) filters candidate documents before
    any scoring, threshold publication, or heap insertion — a rejected
    document behaves exactly as if its postings were absent. This is
    how a live index hides tombstoned documents without rewriting
    segment posting lists (see {!Pj_live.Live_index}). *)

val index : t -> Pj_index.Inverted_index.t
