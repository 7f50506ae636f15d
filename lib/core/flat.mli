(** A join problem in flat per-match arrays, with the solvers' working
    state.

    One [t] serves one query: it is sized for the query's terms when it
    is created — WIN's subset tables ([2^|Q|] states), the envelope
    stacks of MED and MAX, the location-order merge cursors — and
    refilled for every candidate problem, so solving allocates nothing
    per problem but the matchsets a caller asks for. Each match's
    per-match value ({!Scoring.g}) is computed once, when the problem
    is built; the solvers ({!Win.run}, {!Med.run}, {!Max_join.run})
    read the arrays directly. *)

(** WIN's Algorithm 1 state, one entry per subset of the query terms. *)
type win_tables = private {
  live : bool array;  (** is there a P-matchset yet? *)
  g_sum : float array;  (** sum of the members' values *)
  l_min : int array;  (** smallest member location *)
  members : int array;
      (** row [P] (entries [P * n .. P * n + |P| - 1]): [P]'s member
          matches, in the order they joined it *)
}

type t = private {
  scoring : Scoring.t;
  n : int;  (** query terms *)
  first : int array;
      (** [n + 1] entries: term [j]'s matches are [first.(j) ..
          first.(j+1) - 1], in location order *)
  mutable len : int;  (** matches loaded *)
  mutable closed : int;  (** terms completed so far while building *)
  mutable loc : int array;
  mutable score : float array;
  mutable payload : int array;
  mutable value : float array;  (** {!Scoring.g} of each match *)
  head : int array;  (** location-order merge cursors, one per term *)
  mutable merged_term : int;
      (** the term of the match {!merge_next} last returned *)
  win : win_tables;  (** empty unless the scoring is WIN *)
  envelope : Envelope.t;  (** MED and MAX; no terms for WIN *)
  best : int array;  (** per term: the best matchset's member *)
  result : float array;
      (** [result.(0)]: the best matchset's score; [result.(1)]: the
          solvers' scratch for {!Scoring.apply_at} *)
  ranks : int array;  (** per-term scratch (MED) *)
}

val create : Scoring.t -> n_terms:int -> t
(** For WIN, [n_terms] is at most {!Pj_util.Subset}'s limit of 30. *)

(** {1 Building a problem} *)

val clear : t -> unit
(** Start a new problem; terms are then filled in order. *)

val add_form :
  t -> int array -> form:int -> scores:float array -> values:float array ->
  payloads:int array -> unit
(** [add_form t positions ~form ~scores ~values ~payloads] appends the
    strictly increasing [positions] of one expansion form to the term
    being filled, each match with the form's score [scores.(form)],
    value [values.(form)] (which must be [Scoring.g] of that score for
    this term) and payload [payloads.(form)]. *)

val close_term : t -> unit
(** Complete the term being filled: matches added from several forms
    are sorted by location. The forms of one term must be distinct
    tokens, so that no two of their positions coincide. *)

val load : t -> Match_list.problem -> unit
(** Fill [t] with a problem of its number of terms. Raises
    [Invalid_argument] if a list is unsorted or the term count
    differs. *)

val of_problem : Scoring.t -> Match_list.problem -> t
(** [create] and [load]: raises [Invalid_argument] as
    {!Match_list.validate}. *)

(** {1 Reading it} *)

val has_empty_term : t -> bool

val term_of : t -> int -> int
(** The term a loaded match index belongs to. *)

val prepare_envelope : t -> Envelope.t
(** {!Envelope.prepare} on the loaded problem: every term's dominating
    matches, cursors rewound. *)

val dominating_lists : Scoring.t -> Match_list.problem -> Match0.t array array
(** Every term's dominating matches under a MED or MAX scoring (for
    tests and diagnostics). *)

val merge_start : t -> unit
(** Rewind the location-order merge. *)

val merge_next : t -> int
(** The next match in increasing location order, or [-1] once all are
    visited; co-located matches by [Match0.compare_by_loc], then by
    term — {!Match_list.iter_in_location_order}'s order. *)

val best_is_valid : t -> bool
(** No two members of [best] share a location (Section VI validity). *)

val match_at : t -> int -> Match0.t
(** The loaded match at an index. *)

val matchset : t -> Matchset.t
(** The matchset [best] describes. *)

val result : t -> Naive.result
(** [matchset] with its score [result.(0)]. *)

val problem : t -> Match_list.problem
(** The loaded problem as match lists. *)
