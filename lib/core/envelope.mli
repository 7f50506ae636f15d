(** Dominating-match functions and contribution upper envelopes
    (Definition 6, Sections IV and V).

    For a match list [L_j] and a contribution function [c_j], the
    contribution upper envelope is [S_j (l) = max_{m in L_j} c_j (m, l)]
    and the dominating-match function [U_j (l)] returns a match attaining
    it. For contribution functions satisfying the at-most-one-crossing
    property (Definition 8) — which includes the MED contribution and the
    MAX contributions of Eq. (4) and Eq. (5) — the envelope is
    represented by the list of its dominating matches in location order,
    precomputed with the stack pass of Algorithm 2
    (PrecomputeDomMatchFunc), and queried at a location by comparing the
    two dominating matches closest to it. *)

type contribution = Match0.t -> int -> float
(** [c m l]: distance-decayed contribution of match [m] at location [l]. *)

val dominating_list : contribution -> Match_list.t -> Match0.t array
(** The stack precomputation: the dominating matches of the envelope in
    increasing location order. Ties are broken toward the match that
    comes last in the list. Linear time: each match is pushed and popped
    at most once. Exact for at-most-one-crossing contributions. *)

type cursor
(** Incremental envelope reader for queries issued in non-decreasing
    location order (the access pattern of Algorithms 2 and the MAX
    algorithm). *)

val cursor : contribution -> Match0.t array -> cursor
(** Build a cursor over a precomputed dominating list. *)

type pick = {
  chosen : Match0.t;
  succeeds : bool;
      (** true when the chosen dominating match is located strictly after
          the query location — the tie-breaking direction Algorithm 2
          must favor (footnote 3). *)
  value : float;  (** the envelope value [S_j (l)] *)
}

val query : cursor -> int -> pick option
(** [query cur l]: a dominating match at [l]. Locations passed to
    successive queries on the same cursor must be non-decreasing.
    [None] iff the dominating list is empty. When the match strictly
    after [l] ties with the one at-or-before [l], the later one is
    chosen, as the correctness of Algorithm 2 requires. *)

val value_at : cursor -> int -> float
(** [value_at cur l]: the envelope value [S_j (l)] — the [value] of
    [query cur l] — with the dominating match left on the cursor for
    {!chosen}, so the solvers' inner loop allocates no option or
    [pick]. Same order constraint and tie rule as {!query}. Raises
    [Invalid_argument] on an empty dominating list. *)

val chosen : cursor -> Match0.t
(** The dominating match of the cursor's last query. *)

val pointwise_max : contribution -> Match_list.t -> int -> float
(** Brute-force [S_j (l)] by scanning the whole list — the definitional
    oracle used in tests. [neg_infinity] on an empty list. *)

val interval_pairs :
  contribution -> Match_list.t -> lo:int -> hi:int ->
  (int * int * Match0.t) list
(** The interval–match-pair representation of the dominating-match
    function over integer locations [lo..hi] (Section V's general
    approach): maximal intervals [(a, b, m)] with [U_j (l) = m] for all
    [l] in [a..b]. Computed by pointwise scanning, O((hi-lo) |L|) — the
    general method works for arbitrary contribution functions but is far
    slower than the stack precomputation; see the [max_ablation]
    benchmark. *)
