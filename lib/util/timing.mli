(** Wall-clock measurement for the experiment harness.

    The paper measures wall-clock time of each algorithm over a document
    set, excluding match-list generation, and reports coefficients of
    variation over repetitions; this module provides exactly that
    protocol. *)

external monotonic_now : unit -> (float[@unboxed])
  = "pj_monotonic_now_byte" "pj_monotonic_now"
[@@noalloc]
(** Monotonic clock in seconds from an arbitrary origin
    ([CLOCK_MONOTONIC]). Immune to wall-clock adjustments — the time
    source for per-query deadlines ([Pj_engine.Searcher.search_within],
    the server's deadline bookkeeping) and for all elapsed-time
    measurement in this module. Values are only comparable within one
    process. Allocates nothing in native code (an unboxed, [noalloc]
    external), so a deadline check costs one clock read. *)

val time : (unit -> 'a) -> 'a * float
(** Run a thunk and return its result together with the elapsed seconds
    (measured on the monotonic clock). *)

type measurement = {
  mean_s : float;       (** mean elapsed seconds over repetitions *)
  stdev_s : float;
  cov : float;          (** coefficient of variation, as in Section VIII *)
  repetitions : int;
}

val measure : ?repetitions:int -> (unit -> unit) -> measurement
(** Run the thunk [repetitions] times (default 3) and summarize. *)

val pp_measurement : Format.formatter -> measurement -> unit
