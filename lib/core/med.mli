(** Algorithm 2: overall best matchset under MED scoring (Section IV).

    By Lemma 1 there is an overall best matchset whose every member is a
    dominating match (for its term) at the matchset's median location.
    After a linear-time precomputation of the per-term dominating-match
    lists, the algorithm scans all matches in location order and, at
    every match location, assembles the matchset of dominating matches
    and scores it definitionally, returning the best candidate seen.
    (The paper's variant additionally checks that the current match is
    the candidate's median; dropping the check and scoring definitionally
    is exact — see the proof note in the implementation — and robust to
    location ties, which break the literal rank test.)
    Running time [O((|Q| + log |Q|) * sum |L_j|)], space [O(sum |L_j|)]. *)

val best : Scoring.med -> Match_list.problem -> Naive.result option
(** Overall best matchset, or [None] when a list is empty. The score of
    the result equals the naive NMED score on the same input. *)

val run : Scoring.med -> Flat.t -> bool
(** [best] on the problem loaded in a workspace created for
    [Scoring.Med d]: false when a list is empty; otherwise the best
    matchset into [best] and its score into [result.(0)]. Allocates
    nothing. *)

val dominating_lists : Scoring.med -> Match_list.problem -> Match0.t array array
(** The precomputed per-term dominating-match lists [V_j] (exposed for
    tests and diagnostics). *)
