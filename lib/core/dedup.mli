(** Avoiding duplicate matches (Section VI).

    A matchset is valid when no two of its members refer to the same
    document token (same location). This module wraps any
    duplicate-unaware solver: run it; if the winning matchset uses some
    match for several terms, branch on which single term keeps the match
    (removing it from the other lists), re-solve each modified instance
    recursively, and return the best valid matchset found. The method is
    exact and, on realistic inputs where duplicates are rare in best
    matchsets, usually needs a single solver invocation. The search is
    pruned with a sound bound (removing matches can only lower an
    instance's duplicate-unaware optimum, which bounds every valid
    matchset in its subtree) and memoizes repeated removal sets. *)

type solver = Match_list.problem -> Naive.result option

type stats = {
  invocations : int;
      (** number of times the duplicate-unaware solver ran — the
          quantity plotted in Figure 8 *)
}

val best_valid :
  solver -> Match_list.problem -> Naive.result option * stats
(** Best valid matchset under the wrapped solver's scoring, or [None]
    when no valid matchset exists (e.g. some list is empty, or the only
    candidates reuse tokens). *)

val resume :
  solver -> Match_list.problem -> root:Naive.result ->
  Naive.result option * stats
(** [best_valid] after its root solve, for a caller that solved the
    root itself and found its matchset [root] reusing a location: the
    branch-and-bound below it. [invocations] counts the root solve. *)
