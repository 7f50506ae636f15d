(** Multicore helpers (OCaml 5 domains).

    Document collections are embarrassingly parallel for the join
    algorithms: each document's match lists are solved independently.
    [map_array] splits an array into contiguous chunks, one per domain. *)

val recommended_domains : unit -> int
(** A sensible domain count for this machine
    ([Domain.recommended_domain_count], capped at 8 by default). The cap
    can be overridden through the [PROXJOIN_DOMAINS] environment
    variable (clamped to at least 1; non-numeric values are ignored) —
    e.g. to let a dedicated server box use more than 8 cores, or to
    pin CI to a single domain. *)

val map_array : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map], preserving order. [domains] defaults to
    {!recommended_domains}; [1] (or arrays shorter than 2 elements) runs
    sequentially with no domain spawns. The function must be safe to run
    concurrently with itself (the solvers are: they share no mutable
    state). An exception in any chunk is re-raised after every domain is
    joined. *)
