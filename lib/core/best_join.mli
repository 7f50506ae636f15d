(** Top-level convenience API for the weighted proximity best-join.

    Dispatches a problem instance to the efficient algorithm for the
    given scoring family (Algorithm 1 for WIN, Algorithm 2 for MED, the
    specialized envelope algorithm for MAX), optionally wrapped in the
    Section VI duplicate handler, and optionally applying the Section
    VIII switch heuristic (fall back to the naive algorithm when all
    match lists but one contain at most one match, where the cross
    product is trivially small). *)

type algorithm =
  | Fast       (** the paper's linear-time algorithms *)
  | Naive_alg  (** cross-product baselines NWIN / NMED / NMAX *)
  | Auto       (** Fast, or Naive when the switch heuristic applies *)

val solve :
  ?algorithm:algorithm ->
  ?dedup:bool ->
  Scoring.t ->
  Match_list.problem ->
  Naive.result option
(** Overall best matchset (Definition 2), or best *valid* matchset when
    [dedup] is true (default: false). [None] when a list is empty or,
    with [dedup], when no valid matchset exists. *)

val run : Flat.t -> bool
(** The fast duplicate-unaware solve of the problem loaded in a
    workspace, for the workspace's scoring ({!Win.run}, {!Med.run},
    {!Max_join.run}). *)

val solve_with_stats :
  ?algorithm:algorithm ->
  Scoring.t ->
  Match_list.problem ->
  Naive.result option * Dedup.stats
(** [solve ~dedup:true] exposing the number of duplicate-unaware solver
    invocations (Figure 8's measure). *)

val by_location : Scoring.t -> Match_list.problem -> By_location.entry list
(** Section VII: best matchset per anchor location. *)

val top_k : k:int -> Scoring.t -> Match_list.problem -> By_location.entry list
(** The [k] highest-scoring locally best matchsets (one per anchor
    location, Section VII), in decreasing score order — the natural
    "several good answers" interface for extraction applications. *)

val switch_to_naive : Match_list.problem -> bool
(** The Section VIII heuristic predicate: true when at most one match
    list has more than one match. *)
