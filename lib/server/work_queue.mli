(** Bounded multi-producer multi-consumer queue — the server's
    backpressure point.

    Producers (connection handlers) use the non-blocking {!try_push}:
    when the queue is full the request is rejected with [BUSY] instead
    of queueing unboundedly, which keeps worst-case latency bounded
    under overload (clients retry; the server never builds an
    invisible backlog). Consumers (worker domains) block in {!pop}.
    Safe across domains and threads (mutex + condition variable). *)

type 'a t

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val try_push : 'a t -> 'a -> bool
(** Enqueue without blocking; [false] when the queue is full or
    closed. *)

val pop : 'a t -> 'a option
(** Block until an item is available and dequeue it. After {!close},
    drains remaining items, then returns [None] — so accepted work is
    still completed during shutdown. *)

val close : 'a t -> unit
(** Reject future pushes and wake every blocked consumer. *)

val length : 'a t -> int
