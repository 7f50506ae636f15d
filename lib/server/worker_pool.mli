(** A supervised pool of OCaml 5 worker domains executing searches
    against one shared, immutable search function.

    The function closes over a searcher (a {!Pj_engine.Searcher.t}, or
    a {!Pj_live.Live_index.t} whose queries read immutable
    generation-swapped snapshots), so the domains race on nothing; the
    only synchronization is the bounded {!Work_queue} in front of the
    pool. Ingest tasks ({!submit_task}) ride the same queue and
    serialize on the live index's writer lock. Parallelism therefore
    scales with domains up to memory bandwidth, exactly like
    {!Pj_util.Parallel.map_array} over documents.

    Completion-driven: every job carries a completion ([outcome ->
    unit]) that the worker executing it calls exactly once, on the
    worker's domain, with no lock held. The submitter does not block —
    the server's completions render, cache and hand the response to
    the client connection's writer. {!run} is the blocking wrapper for
    callers that do want to wait.

    Supervision: a worker that {e panics} (a
    {!Pj_util.Failpoint.Panicked} escaping a job — modelling a crash
    rather than an ordinary error) first completes its job with
    [Failed] (no submitter is ever left without an answer), then dies;
    a supervisor thread detects the death, reclaims the domain, and
    spawns a replacement into the same slot, so the pool returns to
    full strength within one respawn cycle instead of silently
    shrinking. Ordinary exceptions never kill a worker — they are
    caught per job and reported as [Failed]; an exception escaping a
    completion is dropped. *)

type outcome =
  | Hits of Pj_engine.Searcher.hit list  (** complete result *)
  | Timed_out  (** the per-query deadline passed (queueing included) *)
  | Failed of string
      (** the search raised, e.g. a matcher without finite expansions,
          or the worker executing it panicked *)

type incomplete = |
(** A type with no values. *)

type search =
  scoring:Pj_core.Scoring.t ->
  k:int ->
  deadline:float ->
  Pj_matching.Query.t ->
  (Pj_engine.Searcher.hit list * incomplete list, [ `Timeout ]) result
(** What a worker runs per job: [Ok (hits, [])], the complete top-k, or
    [Error `Timeout]. [incomplete] has no values, so the list is always
    [[]]; the pair stays because the benchmark harness
    ([perfbench/traced.ml]) builds search functions of this shape.
    Must be safe to call from several
    domains at once (both provided constructors are: they only read
    immutable index data). *)

val of_searcher : Pj_engine.Searcher.t -> search
(** [Pj_engine.Searcher.search_within] (block-max pruned DAAT, the one
    traversal) over one index. *)

val of_live : Pj_live.Live_index.t -> search
(** [Pj_live.Live_index.search_within] over the live index's current
    snapshot — domain-safe because each query reads one immutable
    snapshot. *)

type t

val create : domains:int -> queue_capacity:int -> search -> t
(** Spawn [max 1 domains] workers sharing a bounded queue, plus the
    supervisor thread. *)

val submit :
  t ->
  scoring:Pj_core.Scoring.t ->
  k:int ->
  deadline:float ->
  Pj_matching.Query.t ->
  (outcome -> unit) ->
  bool
(** Queue a search whose outcome goes to the completion. [false] —
    without queueing, and without ever calling the completion — when
    the queue is full (backpressure) or the pool is shut down.
    [deadline] is an absolute time on the monotonic clock
    ([Pj_util.Timing.monotonic_now]); a job still queued at its
    deadline completes [Timed_out] without starting. *)

val submit_task :
  t -> (unit -> string) -> ((string, string) result -> unit) -> bool
(** Queue an arbitrary task — the ingest path: ADDDOC/DELDOC/FLUSH run
    on the worker domains through the same bounded queue as searches,
    so writes get the same backpressure ([false]) and supervision
    story. No deadline: once queued, the task runs to completion (a
    write the server acknowledged must have happened). The completion
    gets [Ok line], the task's response line, or [Error reason] when
    it raised (a panic also kills the worker, which the supervisor
    respawns, exactly as for searches). *)

val run :
  t ->
  scoring:Pj_core.Scoring.t ->
  k:int ->
  deadline:float ->
  Pj_matching.Query.t ->
  [ `Busy | `Done of outcome ]
(** {!submit} and block until the outcome; [`Busy] when refused. *)

val domains : t -> int
val queue_length : t -> int

val panics : t -> int
(** Worker domains lost to a panic since {!create}. *)

val respawns : t -> int
(** Replacement domains the supervisor has spawned. Steady state:
    [panics = respawns] and {!live} [= domains]. *)

val live : t -> int
(** Worker domains currently running (i.e. not yet terminated). Equal
    to [domains] except in the window between a panic and its
    respawn, or during {!shutdown}. *)

val shutdown : t -> unit
(** Stop accepting jobs, finish the ones already queued (respawning
    panicked workers as long as jobs remain, so every accepted job
    completes), then join every worker domain and the supervisor.
    Idempotent; concurrent submits race benignly into a refusal. *)
