(** Algorithm 1: overall best matchset under WIN scoring (Section III).

    A dynamic program over the nonempty subsets P of the query terms:
    matches are processed in location order, and for every P a best
    partial P-matchset at the current location is maintained, using the
    optimal substructure property of [f] to carry bests forward. Running
    time [O(2^|Q| * sum |L_j|)]; space [O(|Q| * 2^|Q|)]. *)

val best : Scoring.win -> Match_list.problem -> Naive.result option
(** Overall best matchset, or [None] when a list is empty. The score of
    the result equals the naive NWIN score on the same input. *)

val run : Scoring.win -> Flat.t -> bool
(** [best] on the problem loaded in a workspace created for
    [Scoring.Win w]: false when a list is empty; otherwise the best
    matchset into [best] and its score into [result.(0)]. Allocates
    nothing. *)

val best_ordered : Scoring.win -> Match_list.problem -> Naive.result option
(** Extension: the overall best matchset whose member locations respect
    the query-term order ([loc m_1 <= loc m_2 <= ...]) — the "order
    constraint" of Cheng et al.'s EntityRank, which Eq. (1) drops.
    Under the constraint only prefix subsets of the query can carry best
    partial matchsets, so the DP runs in [O(|Q| * sum |L_j|)] — without
    the [2^|Q|] factor. [None] when no ordered matchset exists. *)

val best_valid : Scoring.win -> Match_list.problem -> Naive.result option
(** Extension beyond the paper's generic Section VI wrapper: the best
    {e valid} matchset (no duplicate matches), computed directly by a
    duplicate-aware variant of Algorithm 1 in the same
    [O(2^|Q| * sum |L_j|)] bound. Matches are folded in one location
    group at a time against a snapshot of the pre-group states, so no
    partial matchset ever acquires two co-located members. [None] when
    a list is empty or no valid matchset exists. *)
