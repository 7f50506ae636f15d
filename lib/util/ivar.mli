(** A write-once cell a thread can block on: the bridge from a
    completion callback ([fill]) back to a caller that wants to wait
    for the value ([read]). The serving path itself never blocks on
    one; the blocking convenience wrappers over completion APIs
    ([Worker_pool.run], [Backend.request], [Router.search], ...) and
    the text dialect's one-request-at-a-time reader do. Safe across
    threads and domains. *)

type 'a t

val create : unit -> 'a t

val fill : 'a t -> 'a -> unit
(** Store the value and wake every reader. The first fill wins; later
    ones are ignored. *)

val read : 'a t -> 'a
(** Block until the cell is filled, then return its value. *)
