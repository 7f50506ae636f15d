(** Per-anchor candidate selection for MED (support module shared by
    {!By_location.med} and {!Med_stream}).

    For a fixed anchor location, each other query term contributes one
    of up to three side-best candidates: the best match strictly before
    the anchor, the best exactly at it, and the best strictly after it
    (contributions evaluated at the anchor). The anchor is the median of
    the assembled matchset iff, with R terms strictly after and A terms
    exactly at the anchor (plus the anchor member itself),
    [R <= mr - 1] and [R + A + 1 >= mr] where [mr = floor ((n+1)/2)].
    [select] maximizes the total contribution under that constraint by a
    small dynamic program over (R, A) states. *)

type options = {
  left : (float * Match0.t) option;
      (** best strictly-before candidate: (contribution at anchor, match) *)
  at : (float * Match0.t) option;    (** best exactly-at candidate *)
  right : (float * Match0.t) option; (** best strictly-after candidate *)
}

val select : int -> options array -> Match0.t array option
(** [select n others] picks one candidate from each element of [others]
    (the [n - 1] terms other than the anchor member's), maximizing total
    contribution subject to the median constraint; [None] when no
    feasible assignment exists. *)
