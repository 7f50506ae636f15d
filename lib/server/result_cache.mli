(** Thread-safe LRU cache of rendered SEARCH responses.

    Keys come from {!Protocol.cache_key} (scoring parameters plus the
    terms in request order); values are complete response lines, so a hit is
    byte-identical to the response the solvers would have produced and
    costs one lock plus one hash lookup — no query parsing, no queue
    slot, no worker domain. Hit/miss counters feed the [STATS]
    report.

    When the server fronts a live index, every entry is keyed under
    the index generation it was computed against ({!set_generation});
    bumping the generation makes all older entries unreachable, so a
    response cached before an ingest can never be replayed after it. *)

type t

val create : capacity:int -> t

val lookup : t -> string -> [ `Hit of string | `Miss of int ]
(** Counts a hit or a miss, and refreshes recency on hits. A miss
    carries the generation it was looked up under, for {!add}. *)

val find : t -> string -> string option
(** {!lookup} without the generation. *)

val add : ?generation:int -> t -> string -> string -> unit
(** Store a response line — but only when {!Protocol.cacheable} says
    it is a complete answer. [TIMEOUT], [OK-DEGRADED], [BUSY] and
    [ERR] lines are silently refused: a degraded or timed-out request
    must never be replayed to healthy clients. With [~generation] (the
    one its {!lookup} missed under), the line is also refused once the
    generation has moved on: a search that started before an ingest
    or a backend death and finished after it must not be stored as
    the answer for the new generation. *)

val set_generation : t -> int -> unit
(** Invalidate every entry cached against an older index generation
    by switching the key namespace. Monotone: a generation lower than
    the current one is ignored (out-of-order swap notifications must
    not resurrect stale entries). Superseded entries are not swept;
    they age out of the LRU. *)

val generation : t -> int
(** The current key-namespace generation (0 until the first
    {!set_generation}). *)

val stats : t -> int * int * int
(** [(hits, misses, current length)]. *)

val clear : t -> unit
(** Drop all entries and reset the counters. *)
