(** String interning: a bidirectional mapping between tokens and dense
    integer ids.

    The index and the matchers work on token ids; ids also ride in the
    [payload] field of core matches so that applications can print which
    token produced a match.

    All operations are thread-safe: a vocabulary is shared between the
    live-index writer (which interns new tokens while ingesting) and
    search domains (which [find] query forms concurrently), so every
    operation takes a short internal lock. The lock is uncontended in
    read-only workloads and its cost is a few nanoseconds next to the
    hashtable probe it guards. *)

type t

val create : unit -> t

val intern : t -> string -> int
(** The id of the token, allocating a fresh one on first sight. *)

val find : t -> string -> int option
(** The id of the token if it has been interned. *)

val word : t -> int -> string
(** The token of an id. Raises [Invalid_argument] for unknown ids. *)

val size : t -> int
(** Number of interned tokens. *)

val intern_all : t -> string array -> int array
(** [intern] over a whole array, in order, under one acquisition of the
    lock. *)
