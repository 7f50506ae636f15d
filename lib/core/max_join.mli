(** Overall best matchset under MAX scoring (Section V).

    [best] is the efficient specialized algorithm for MAX scoring
    functions that are at-most-one-crossing and maximized-at-match
    (Definition 8) — both Eq. (4) and Eq. (5) qualify (Lemma 3). It
    precomputes the per-term dominating-match lists with the same stack
    pass as Algorithm 2 and then evaluates the envelope sum
    [sum_j S_j (l)] at match locations, tracking the maximum; by Lemma 2
    the dominating matches at the maximizing location form an overall
    best matchset. Running time [O(|Q| * sum |L_j|)].

    [best_general] is Section V's general approach: it builds the
    interval–match-pair representation of every [U_j] over the location
    range and maximizes the envelope sum over it. It works for arbitrary
    monotone contribution functions but costs time proportional to the
    location range times the list sizes; it serves as a reference
    implementation and ablation baseline. *)

val best : Scoring.max -> Match_list.problem -> Naive.result option
(** Specialized algorithm. [None] when a list is empty. The result score
    equals the naive NMAX score on the same input (for
    maximized-at-match scoring functions). *)

val run : Scoring.max -> Flat.t -> bool
(** [best] on the problem loaded in a workspace created for
    [Scoring.Max x]: false when a list is empty; otherwise the best
    matchset into [best] and its score into [result.(0)]. Allocates
    nothing. *)

val best_general : Scoring.max -> Match_list.problem -> Naive.result option
(** General envelope-sum approach over the full integer location range
    of the problem. *)

val best_anchored :
  anchor_term:int -> Scoring.max -> Match_list.problem -> Naive.result option
(** The scoring of Chakrabarti et al. (the paper's reference [7]), which
    Eq. (5) generalizes: the reference point is pinned to the location
    of the anchor term's match ("who", "physicist", ... — the query's
    single type term) instead of being maximized over. Returns the
    matchset maximizing [f (sum_j c_j (m_j, loc m_k))] where [k] is
    [anchor_term]. Runs in [O(|Q| * sum |L_j|)] with the same envelope
    precomputation as [best]. The reported score is the score at the
    anchor (not the MAX score). *)

val dominating_lists : Scoring.max -> Match_list.problem -> Match0.t array array
(** The precomputed per-term dominating-match lists (exposed for tests
    and diagnostics). *)
