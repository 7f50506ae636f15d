(** The concurrent query-serving loop: a TCP server speaking
    {!Protocol} over a hot search function (a monolithic
    {!Pj_engine.Searcher.t}, a sharded {!Pj_engine.Shard_searcher.t},
    or a {!Pj_live.Live_index.t}, via the {!Worker_pool.search}
    constructors).

    Architecture: one accept loop hands each connection to a reader
    thread that parses requests and answers what it can on the spot —
    {!Result_cache} hits, PING, STATS, errors. A cache miss goes to a
    {!Worker_pool} of OCaml 5 domains through a bounded {!Work_queue}
    (or to the router's legs, see [?forward]) together with a
    completion that renders the response, caches it, records metrics
    and hands it back to the connection. No thread waits per request:
    a text connection's reader waits for its one request's answer and
    writes it; a binary connection's answers go out through the
    connection's one writer thread, so neither a worker domain nor a
    router backend's reader ever blocks on a client's socket. Failure
    semantics per request: queue full → [BUSY]; per-query wall-clock
    deadline exceeded → [TIMEOUT]; malformed request or failing query
    → [ERR] with the connection left open; a sharded search that lost
    some (but not all) shard legs → [OK-DEGRADED] carrying the
    surviving shards' merged top-k, never cached. {!Metrics}
    aggregates counters and latency percentiles for [STATS] and the
    optional periodic log line on stderr.

    Live ingestion: when started with [?live], the server additionally
    accepts the write verbs [ADDDOC]/[DELDOC]/[FLUSH]. Writes ride the
    same bounded queue and worker domains as searches (same [BUSY]
    backpressure, same supervision) but carry no deadline — an
    acknowledged write has happened. Every index generation swap
    switches the {!Result_cache} key namespace, so a response cached
    before an ingest is never replayed after it, and [STATS] grows the
    live-index fields ([docs=], [segments=], [memtable_docs=],
    [generation=], ...). Without [?live] the write verbs answer
    [ERR]. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** 0 picks an ephemeral port (see {!port}) *)
  domains : int;  (** worker domains, default {!Pj_util.Parallel.recommended_domains} *)
  queue_capacity : int;  (** pending searches before [BUSY], default 64 *)
  cache_capacity : int;  (** LRU entries, default 1024 *)
  deadline_s : float;  (** per-query wall-clock budget, default 2.0 *)
  drain_s : float;
      (** how long {!stop} lets in-flight requests finish before
          force-closing their connections, default 5.0 *)
  log_every_s : float option;  (** stderr stats period, default [None] *)
  binary_inflight : int;
      (** per-connection in-flight cap on the binary wire: how many
          pipelined requests one connection may have unanswered (or
          answered but not yet written) before the server stops
          reading its socket (TCP backpressure, not shedding), default
          32. Costs no threads: each binary connection has one reader
          and one writer thread whatever the cap. *)
}

val default_config : config

(** The result of a forwarded (routed) search — what a {!forward}
    hook returns in place of a local worker-pool outcome. Carries
    bare [(doc_id, score)] pairs: the server renders them at the
    client's wire precision and applies the same caching and metrics
    taxonomy as local results. *)
type forward_outcome =
  | Forwarded_hits of (int * float) list  (** complete; cacheable *)
  | Forwarded_degraded of (int * float) list * int list
      (** exact top-k of the surviving legs, plus the failed leg
          indexes — rendered as [OK-DEGRADED], never cached *)
  | Forwarded_timeout
  | Forwarded_busy
  | Forwarded_error of string

type forward = {
  search :
    Protocol.search_request -> deadline:float -> (forward_outcome -> unit) -> unit;
      (** Scatter one SEARCH; the outcome goes to the completion
          exactly once, from any thread. [deadline] is absolute
          monotonic time, computed from [config.deadline_s]. Must be
          callable from many connection readers at once and must not
          block. *)
  on_epoch : (int -> unit) -> unit;
      (** Install the server's epoch listener: called (with no lock
          held) whenever the set of healthy backends changes, with a
          strictly newer epoch each time. The server uses it as its
          result-cache generation. *)
}
(** A scatter-gather hook replacing the local worker pool for SEARCH
    (parsing, validation, caching, metrics and both wire dialects stay
    in the server). *)

type t

val start :
  ?config:config ->
  ?live:Pj_live.Live_index.t ->
  ?forward:forward ->
  ?stats:(Metrics.t -> unit) ->
  graph:Pj_ontology.Graph.t ->
  Worker_pool.search ->
  t
(** Bind, listen, spawn the worker pool and the accept thread, and
    return immediately. The search function must be domain-safe (use
    {!Worker_pool.of_searcher}, {!Worker_pool.of_shard_searcher} or
    {!Worker_pool.of_live}); [graph] is the lemma graph query terms
    are parsed against. [?live] enables the write verbs and wires the
    index's generation swaps into the result cache — pass the same
    index the search function closes over. The server does not own
    the live index: close it after {!stop}. Raises [Unix.Unix_error]
    when the address cannot be bound, and [Invalid_argument] when
    [config.binary_inflight < 1].

    [?forward] turns the server into a router front-end: SEARCH is
    answered by the hook, and the hook's epoch namespaces the result
    cache. Without [?live] such a server has no worker pool at all
    (the search function, [config.domains] and [config.queue_capacity]
    go unused, and STATS reports [domains=0]).

    [?stats] registers the caller's STATS keys after the server's own,
    before the first connection is accepted: a static index's [docs=]
    ({!static_docs}: how a router derives backend doc-id bases; a live
    index reports its own), or a router's per-backend health
    ({!Pj_cluster.Router.register_stats}).

    Both wire dialects are served on the one socket: a connection's
    first byte picks text ({!Protocol} lines) or binary
    ({!Pj_frame.Frame}s, request-id pipelined, score rendering at
    {!Protocol.exact_precision}).

    Ignores SIGPIPE for the whole process: a client that hangs up
    before its answer is written fails that write, not the server. *)

val static_docs : int -> Metrics.t -> unit
(** [~stats:(static_docs n)]: register [docs=n] for a static index of
    [n] documents. *)

val port : t -> int
(** The actual bound port (useful with [port = 0]). *)

val connections : t -> int
(** Number of currently open client connections — i.e. the size of the
    internal connection table, which handler threads remove themselves
    from on exit. Steady at 0 after all clients disconnect; grows only
    with concurrently open connections, never with connection
    turnover. *)

val stop : t -> unit
(** Graceful shutdown in three phases: stop accepting (close the
    listening socket, join the accept loop); drain — requests already
    read off a socket get up to [drain_s] seconds to finish and flush
    their response; then force-close remaining connections, finish
    queued jobs, and join every thread and domain. Idempotent. *)

val kill : t -> unit
(** {!stop} minus the drain and the goodbyes: every connection is
    dropped immediately, in-flight requests lose their answers — the
    socket-level behaviour of kill -9, for chaos tests that need a
    backend to vanish mid-stream without leaking threads in the test
    process. Idempotent with {!stop}. *)

val inflight : t -> int
(** Requests currently between being read off a socket and their
    response being written (or dropped, for a client gone away) — what
    the drain phase of {!stop} waits on. *)

val wait : t -> unit
(** Block until the accept loop exits (i.e. until {!stop}). *)

val stats_line : t -> string
(** The current [STATS] response line. *)

val cache : t -> Result_cache.t
