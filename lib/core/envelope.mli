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
    two dominating matches closest to it.

    The envelopes of all query terms live in one {!t}, over a problem's
    flat per-match arrays (term [j]'s matches at indices
    [first.(j) .. first.(j+1) - 1]), sized once and refilled per
    problem: a query allocates nothing. *)

(** The contribution [c_j (m, l)] of match [i] (location [loc.(i)],
    per-match value [value.(i)]) at location [l]. *)
type kind =
  | Tent  (** [value.(i) -. |loc.(i) - l|]: MED's contribution *)
  | Decay of float
      (** [value.(i) *. exp (-.alpha *. |loc.(i) - l|)]: MAX's
          {!Scoring.Decay} form *)
  | Contribution of (int -> float -> int -> float)
      (** [c term value.(i) |loc.(i) - l|]: any other
          at-most-one-crossing contribution, MAX's
          {!Scoring.Contribution} form *)

type t = private {
  kind : kind;
  decay0 : float;  (** [exp (-.alpha *. 0.)] for {!Decay} *)
  mutable loc : int array;  (** the prepared problem's arrays *)
  mutable value : float array;
  mutable first : int array;
      (** [n + 1] entries: term [j]'s dominating matches sit at
          positions [first.(j) .. stop.(j) - 1] of [dom] *)
  stop : int array;
  mutable dom : int array;  (** problem index of each dominating match *)
  next : int array;
      (** per term: the first dominating match located after the last
          query *)
  chosen : int array;
      (** per term: problem index of the last query's dominating match *)
  height : float array;  (** per term: [S_j] at the last query *)
}

val create : kind -> n_terms:int -> t

val prepare : t -> loc:int array -> value:float array -> first:int array -> unit
(** The stack precomputation for every term: its dominating matches in
    increasing location order, ties broken toward the match that comes
    last in the list; then every cursor rewound. Linear time: each
    match is pushed and popped at most once. Exact for
    at-most-one-crossing contributions. The arrays are kept, not
    copied: queries read them until the next [prepare]. *)

val advance : t -> int -> int -> unit
(** [advance e j l]: a dominating match of term [j] at [l] into
    [chosen.(j)], and [S_j (l)] into [height.(j)]. Locations passed to
    successive calls for one term must be non-decreasing. When the
    match strictly after [l] ties with the one at or before [l], the
    later one is chosen, as the correctness of Algorithm 2 requires
    (footnote 3). Raises [Invalid_argument] on an empty dominating
    list. *)

val dominating : t -> int -> int array
(** Term [j]'s dominating matches as problem indices, in location order
    (for tests and diagnostics). *)

(** {1 Pointwise envelopes} *)

type contribution = Match0.t -> int -> float
(** [c m l]: distance-decayed contribution of match [m] at location [l]. *)

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
