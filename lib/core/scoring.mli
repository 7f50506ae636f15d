(** Matchset scoring functions (Definitions 3, 5 and 7).

    A family instance is data its solver reads directly. The per-term
    transform [g_j] of the individual match score is applied once per
    match, when a problem is built ({!g}); the rest of the function is
    a first-order form — WIN's comparison key [g-sum - beta * window],
    MED's contribution [g - |loc - at|], MAX's [g * exp (-alpha * d)]
    — under an {!outer} function [f]. The solvers evaluate these forms
    inline, with no closure call per comparison. An instance outside
    its family's form keeps its closures, which the same solver loops
    call instead. The paper's instances are provided ready-made. *)

(** {1 Outer functions} *)

(** A monotonically increasing [f] applied to a summed score. *)
type outer =
  | Identity  (** [f x = x] *)
  | Exp_scaled of float
      (** [f x = exp (a *. x)]; [a = 1.] is [exp] exactly. *)
  | Outer of (float -> float)  (** any other monotone [f] *)

val apply : outer -> float -> float

val apply_at : outer -> float array -> int -> unit
(** [apply_at o a i] replaces [a.(i)] by [apply o a.(i)]: for the
    solvers' loops, which keep their floats unboxed in arrays — a call
    passing or returning a float boxes it. *)

(** {1 Window-length (WIN), Definition 3} *)

type win = {
  win_g : int -> float -> float;
      (** [win_g j score]: the monotonically increasing per-term
          transform g_j of the individual match score. *)
  win_form : win_form;
  win_name : string;
}

and win_form =
  | Window_penalty of { beta : float; outer : outer }
      (** [f (x, y) = outer (x -. beta *. y)], compared on its key
          [x -. beta *. y]: Eq. (1) ([beta = alpha], [outer = exp]) and
          footnote 9's linear instance ([beta = 1], identity). *)
  | Win_closures of {
      key : float -> int -> float;
          (** a strictly increasing transform of [f], used for
              comparisons in the inner loop of Algorithm 1: it must
              order pairs exactly as [f] does *)
      f : float -> int -> float;
          (** [f gsum window]: increasing in the first argument,
              decreasing in the second, with the optimal substructure
              property of Definition 3 *)
    }

val win_key : win -> float -> int -> float
(** The comparison key [key gsum window] of either form. *)

val win_f : win -> float -> int -> float
(** [win_f w gsum window]: the instance's [f]. *)

val score_win : win -> Matchset.t -> float
(** Definitional WIN score: [f (sum_j g_j score_j) (window M)]. *)

val win_exponential : alpha:float -> win
(** Equation (1): [(prod score_j) * exp (-alpha * window)] — the
    approximation of Cheng et al.'s EntityRank scoring, with
    [g_j = ln] and [f (x, y) = exp (x - alpha y)]. *)

val win_linear : win
(** Footnote 9's TREC instance: [g_j x = x / 0.3], [f (x, y) = x - y]. *)

(** {1 Distance-from-median (MED), Definition 5} *)

type med = {
  med_g : int -> float -> float;  (** monotonically increasing g_j *)
  med_f : outer;                  (** monotonically increasing f *)
  med_name : string;
}

val med_contribution : med -> term:int -> Match0.t -> at:int -> float
(** Distance-decayed score contribution
    [c_j (m, l) = g_j (score m) - |loc m - l|]. *)

val score_med : med -> Matchset.t -> float
(** Definitional MED score: [f (sum_j c_j (m_j, median M))]. *)

val med_exponential : alpha:float -> med
(** Equation (3): [prod (score_j * exp (-alpha |loc_j - median|))], with
    [g_j x = ln x / alpha] and [f x = exp (alpha x)]. *)

val med_linear : med
(** Footnote 9's TREC instance: [g_j x = x / 0.3], [f x = x]. *)

(** {1 Maximize-over-location (MAX), Definition 7} *)

type max = {
  max_form : max_form;
  max_f : outer;  (** monotonically increasing f *)
  max_name : string;
}

and max_form =
  | Decay of { g : int -> float -> float; alpha : float }
      (** [c_j (m, d) = g_j (score m) *. exp (-.alpha *. d)] *)
  | Contribution of (int -> float -> int -> float)
      (** [c j score d]: any g_j increasing in the score and decreasing
          in the distance [d] *)

val max_g : max -> int -> float -> int -> float
(** [max_g x j score d]: the contribution g_j (score, d) of either form. *)

val max_contribution : max -> term:int -> Match0.t -> at:int -> float
(** Contribution [c_j (m, l) = g_j (score m) |loc m - l|]. *)

val score_max_at : max -> Matchset.t -> at:int -> float
(** The matchset score with the reference point fixed at a location:
    [f (sum_j c_j (m_j, l))]. *)

val score_max : max -> Matchset.t -> float
(** Definitional MAX score, [max_l score_max_at l]. Exact for
    maximized-at-match scoring functions (Definition 8) — the maximum is
    taken over the member locations, which is where both Eq. (4) and
    Eq. (5) attain it (Lemma 3). *)

val max_product : alpha:float -> max
(** Equation (4): [max_l prod (score_j * exp (-alpha |loc_j - l|))],
    with [g_j (x, y) = ln x - alpha y] and [f = exp]. *)

val max_sum : alpha:float -> max
(** Equation (5): [max_l sum (score_j * exp (-alpha |loc_j - l|))],
    with [g_j (x, y) = x exp (-alpha y)] and [f = id] — the
    generalization of Chakrabarti et al.'s scoring. *)

val max_gaussian_sum : alpha:float -> max
(** [max_l sum (score_j * exp (-alpha (loc_j - l)^2))]: Gaussian decay.
    At-most-one-crossing (the log-contribution difference of two matches
    is linear in [l]) but {e not} maximized-at-match — two nearby equal
    matches peak between their locations — so [score_max] and the
    specialized algorithm underestimate it; use [score_max_in_range] and
    [Max_join.best_general]. Provided as the documented counterexample
    for Definition 8's maximized-at-match requirement. *)

val score_max_in_range : max -> Matchset.t -> lo:int -> hi:int -> float
(** MAX score with the reference point ranging over the integer
    locations [lo..hi] — the definitional score for MAX functions
    without the maximized-at-match property. *)

(** {1 Uniform view} *)

type t =
  | Win of win
  | Med of med
  | Max of max

val name : t -> string

val g : t -> int -> float -> float
(** [g scoring j score]: the per-match value the family's solver reads,
    computed once per match — [g_j score], or the score itself for a
    MAX instance given by its {!Contribution} closure. *)

val score : t -> Matchset.t -> float
(** Definitional score under any family. *)

val upper_bound : t -> float array -> float
(** [upper_bound scoring values] bounds the score of any matchset whose
    member for term [j] has individual score at most [s_j], where
    [values.(j) = g scoring j s_j]: the proximity penalty is dropped
    (window 0 / distance 0), leaving [f] of the summed per-term
    maxima. Used for candidate pruning in top-k document search. *)
