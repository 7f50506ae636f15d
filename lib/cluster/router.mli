(** The scatter-gather router: answers one SEARCH by querying every
    shard-server {e leg} in parallel over pipelined {!Backend}
    connections, failing a broken leg over to its replicas, and
    merging the survivors' top-k into an exact global answer.

    {2 Legs, replicas, and doc-id bases}

    A {e leg} is one contiguous slice of the global corpus, served by
    a primary backend and any number of replicas holding the same
    slice. Backends index their slice with local doc ids [0..n-1];
    the router rebases hits by the leg's {e base} — given explicitly
    ([HOST:PORT\@BASE]) or derived at {!create} time by fetching each
    leg's [docs=] from STATS and accumulating in leg order (so legs
    partition the corpus in the order configured, exactly like the
    in-process sharded index's contiguous doc-id ranges).

    {2 Why the merge is exact (the PR 4 argument)}

    Every leg returns its local top-k for the {e same} k as the
    client's query. Any document of a surviving leg that belongs to
    the global top-k of the surviving set must rank in the top-k of
    its own leg — so concatenating the surviving legs' lists and
    taking the best k (score desc, doc id asc, the searcher's order)
    is the exact top-k over every document the surviving legs hold.
    With all legs surviving it is byte-identical to a single-process
    search over the whole corpus; with failures it is the exact
    top-k-of-survivors that [OK-DEGRADED] promises.

    {2 Failover state machine}

    Per leg, per query: {!scatter} submits to the primary (site
    [router.leg.N] fires first — an injected error fails the attempt
    before it is sent). A leg attempt fails on connection failure
    ([Down]), deadline ([Timed_out] or a backend [TIMEOUT] line),
    backpressure ([BUSY]), a backend [ERR], or a backend that is
    itself degraded (its slice would be silently incomplete — treated
    as leg failure, keeping the top-k-of-survivors contract honest).
    Each failure fires [router.retry] and, from the failed attempt's
    completion, moves to the next replica with whatever deadline
    budget remains; when the chain is exhausted the leg is failed and
    reported in [OK-DEGRADED]. A leg answered by a replica counts one
    {e failover}; every extra attempt counts one {e backend retry}.
    No thread waits on a leg: the last leg to finish merges and
    answers.

    {2 Cluster epoch}

    Every backend up/down transition bumps the router's {e epoch}.
    Through {!forward} it becomes the front's result-cache generation,
    so a HITS cached while every leg was healthy is not served once a
    backend dies (and a leg that returns does not resurrect entries
    cached around its absence). *)

type spec = { host : string; port : int; base : int option }

val spec_of_string : string -> (spec, string) result
(** Parse [HOST:PORT] or [HOST:PORT\@BASE]. *)

type t

val create :
  ?connect_deadline_s:float ->
  legs:(spec * spec list) list ->
  unit ->
  (t, string) result
(** One [(primary, replicas)] per leg, in corpus order. Connects to
    each leg (primary first, then replicas) to derive doc-id bases
    unless every leg carries an explicit [\@BASE] (a replica's
    explicit base, if any, must agree with its primary's — it serves
    the same slice and is validated at failover time, not here).
    [connect_deadline_s] (default 5) bounds the STATS round-trips.
    [Error] when a base cannot be derived — a router that cannot
    place a leg's doc ids must not start. *)

val scatter :
  t ->
  Pj_server.Protocol.search_request ->
  deadline:float ->
  (Pj_server.Server.forward_outcome -> unit) ->
  unit
(** Submit the search to every leg and return; the merged outcome
    goes to the completion exactly once, on whichever thread finished
    the last leg (a backend reader, a backend's deadline timer, or the
    caller when every leg fails before it is sent).
    [Forwarded_timeout] only when {e every} leg timed out; legs that
    failed for mixed reasons yield [Forwarded_degraded] (possibly with
    zero hits). Thread-safe. *)

val search :
  t ->
  Pj_server.Protocol.search_request ->
  deadline:float ->
  Pj_server.Server.forward_outcome
(** {!scatter} and block until the outcome. *)

val forward : t -> Pj_server.Server.forward
(** The router as a {!Pj_server.Server.forward} hook: {!scatter} for
    SEARCH, and the cluster epoch for the front's result cache. *)

val register_stats : t -> Pj_server.Metrics.t -> unit
(** Register the router tier's STATS keys: [router_legs=],
    [backend_retries=], [failovers=], and per backend
    [backend.<leg>.<i>=host:port] with [.up], [.requests],
    [.failures], [.p50_ms], [.p99_ms] ([i] = 0 is the primary), each
    backend's six from one health read. Pass it as the front's
    [Server.start ~stats]. *)

val backend_retries : t -> int
val failovers : t -> int

val close : t -> unit
(** Close every backend connection and join their threads. *)
