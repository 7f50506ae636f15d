(** One shard-server backend as seen from the router: a persistent,
    pipelined binary-protocol connection plus health accounting.

    Many router threads submit concurrently; requests are written to
    one connection tagged with fresh request ids, and a reader thread
    demultiplexes response frames to their completions — so a backend
    connection carries as many in-flight requests as the router has
    concurrent queries, with no per-request connect and no thread
    waiting per request. Every completion runs exactly once, with no
    lock held: on the reader thread (a response, or a connection
    failure), on the timer thread (a deadline), or inside {!submit}
    (a request that could not be sent).

    Failure model: any connection-level failure (connect refused,
    write error, torn/corrupt frame, EOF) fails {e every} in-flight
    request on that connection with [Down] and drops the connection;
    the next submit reconnects. A request whose deadline passes
    first resolves [Timed_out] (a response arriving later is
    discarded by id). The failpoint site [router.connect] fires
    before every (re)connect attempt.

    A circuit breaker keeps a dead backend cheap: after 3 consecutive
    failures, reconnects are attempted at most once per 50 ms and
    submits inside the cooldown resolve [Down] immediately — the
    failure path must cost less than the success path, or a dead
    backend would serialize every request behind futile TCP connects.
    Any success closes the breaker. *)

type t

type outcome =
  | Line of string  (** the backend's response line, verbatim *)
  | Down of string  (** connection-level failure; the reason *)
  | Timed_out  (** deadline passed with no response *)

val create : host:string -> port:int -> t
(** No connection is attempted until the first {!submit}. *)

val name : t -> string
(** ["host:port"]. *)

val submit : t -> line:string -> deadline:float -> (outcome -> unit) -> unit
(** Write one request frame (connecting first if needed); its outcome
    goes to the completion. Connect/write failures complete [Down]
    before [submit] returns. [deadline] is absolute monotonic time; a
    timer completes the request [Timed_out] shortly after it passes,
    so every submit completes. Never blocks past the write itself —
    scatter over many backends by submitting to all. *)

val request : t -> line:string -> deadline:float -> outcome
(** {!submit} and block until the outcome. *)

val on_health : t -> (bool -> unit) -> unit
(** Install the health-transition hook: called with [false] when the
    connection is lost and with [true] when it is re-established (the
    [up] of {!health} flipping; the very first connection is not a
    transition), with no lock held. One hook per backend; a later call
    replaces it. *)

val fetch_docs : t -> deadline:float -> (int, string) result
(** Ask the backend for its STATS line and extract [docs=] — the
    document count a router needs to derive doc-id bases. *)

type health = {
  up : bool;  (** a connection is currently established *)
  requests : int;
  failures : int;  (** requests resolved [Down] or [Timed_out] *)
  consecutive_failures : int;  (** reset by any success *)
  p50_ms : float;  (** round-trip latency of successful requests *)
  p99_ms : float;
}

val health : t -> health

val close : t -> unit
(** Fail in-flight requests, drop the connection, join the reader and
    timer threads. Subsequent submits complete [Down]. *)
