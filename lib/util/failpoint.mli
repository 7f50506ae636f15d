(** Deterministic fault injection for robustness testing.

    A {e failpoint} is a named site compiled into production code —
    [Failpoint.hit "live.flush"] — that does nothing until a rule is
    armed for it, and then injects one of three faults:

    - [Fail]: raise {!Injected} (an "expected" error a layer should
      absorb or translate),
    - [Delay s]: sleep [s] seconds (deadline pressure, slow disks,
      scheduling hiccups),
    - [Panic]: raise {!Panicked} (an "impossible" crash that must not
      be converted into an ordinary error — worker supervision and
      crash-safety paths key off this exception specifically).

    Rules are armed programmatically ({!configure}, {!arm}) or from
    [$PROXJOIN_FAILPOINTS] ({!init_from_env}) using the grammar

    {[ spec    ::= rule ("," rule)*
       rule    ::= site "=" action ("@" probability)?
       action  ::= "error" | "delay:" milliseconds | "panic"
       site    ::= exact name, or a prefix ending in "*" ]}

    e.g. [PROXJOIN_FAILPOINTS='router.leg.0=error,worker.job=panic@0.05,
    live.flush=delay:250'].

    Sites wired into serving code: [ondisk.save.write],
    [ondisk.save.rename], [worker.job], [server.conn], [live.flush],
    [live.merge], [live.manifest], [live.wal.append], [live.wal.fsync],
    [live.wal.rotate], and the router tier's
    [router.connect] (before every backend (re)connect),
    [router.leg.N] (before leg [N]'s scatter submit) and
    [router.retry] (before each failover attempt to a replica).

    Probabilistic rules draw from one {!Prng} stream seeded at
    {!configure} time (or [$PROXJOIN_FAILPOINT_SEED]), so a whole
    chaos run is reproducible from its seed. All state is
    process-global and thread/domain-safe: the single fast-path check
    is one [Atomic.get] of a [bool], so a disabled site costs a
    function call and one atomic load — nothing is allocated and no
    lock is taken until some rule is armed. *)

exception Injected of string
(** Raised by a site armed with [Fail]; the payload is the site name. *)

exception Panicked of string
(** Raised by a site armed with [Panic]. By convention this exception
    is {e not} caught by ordinary per-request error handling — it
    models a crash, and only crash-recovery layers (worker
    supervision, process exit) may observe it. *)

type action =
  | Fail  (** raise [Injected site] *)
  | Delay of float  (** sleep this many seconds, then continue *)
  | Panic  (** raise [Panicked site] *)

type rule = {
  site : string;  (** exact site name, or a prefix ending in ["*"] *)
  action : action;
  prob : float;  (** firing probability in (0, 1]; 1 = every hit *)
}

val parse : string -> (rule list, string) result
(** Parse a [$PROXJOIN_FAILPOINTS]-style spec. Errors name the
    offending rule. The empty string parses to no rules. *)

val configure : ?seed:int -> rule list -> unit
(** Replace every armed rule (atomically with respect to {!hit}) and
    reseed the probability stream. An empty list disables injection
    entirely — equivalent to {!clear}. *)

val arm : ?prob:float -> string -> action -> unit
(** Arm (or replace) a single rule, keeping the others and the PRNG
    state. [prob] defaults to 1. *)

val clear : unit -> unit
(** Disarm everything and reset per-site fire counts. After [clear],
    {!hit} is back to its zero-cost disabled path. *)

val init_from_env : unit -> (unit, string) result
(** Arm from [$PROXJOIN_FAILPOINTS] (no-op when unset or empty),
    seeding from [$PROXJOIN_FAILPOINT_SEED] when present. Returns the
    parse error rather than raising so CLIs can fail with a usage
    message. *)

val active : unit -> bool
(** Whether any rule is currently armed. *)

val hit : string -> unit
(** Evaluate a site. Disabled path: one atomic load, no allocation —
    callers in steady-state code paths should pass a pre-built
    constant string rather than building names per call. May raise
    {!Injected} or {!Panicked}, or sleep, when an armed rule matches
    (exact name first, then the longest armed ["*"]-prefix) and its
    probability coin comes up. *)

val fired : string -> int
(** How many times the named site actually injected (or slept) since
    the last {!clear}/{!configure} — for assertions in tests. *)

val fired_total : unit -> int
(** Total injections across all sites since the last reset. *)
