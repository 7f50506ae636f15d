(** The STATS registry: one ordered table of named entries that
    renders the single-line key=value [STATS] response (and the
    periodic log line).

    Each key is declared exactly once, where it is registered: its
    name, where its value comes from, and its number format ({!value}).
    {!render} walks the table in registration order; there is no
    record of fields, snapshot or format string to keep in step.

    {2 Adding a key}

    One registration, at the point in the line where the key belongs,
    before the server accepts its first connection:
    - a request counter:
      [let hits = Metrics.counter m "hits"], then [Metrics.incr hits]
      wherever it happens;
    - a latency histogram:
      [let h = Metrics.histogram m [ ("x_p50_ms", Percentile 50.) ]],
      then [Metrics.observe h seconds];
    - a value owned elsewhere (a pool, a cache, an index):
      [Metrics.gauge m "k" (fun () -> Int (read ()))], or {!group} for
      several keys off one read of their source.

    {2 Consistency}

    Counters are [Atomic] cells, bumped without a lock. A {!total} is
    rendered from the same per-render read of its member counters, so
    [requests = searches + pings + ...] holds exactly on every line,
    however many requests land while it renders. A {!group} reads its
    source once per render, so keys that must agree with each other
    (the live index's [docs = segment_docs + memtable_docs -
    tombstones]) come from one read. Histograms take their own mutex
    per observation (O(1): constant-memory log buckets, see
    {!Pj_util.Histogram}). *)

type t

val create : unit -> t
(** An empty registry; register entries, then {!render}. Registration
    is not thread-safe: finish it before the first render. *)

(** How a value renders: [Int] as [%d], [Ms] (milliseconds) as
    [%.3f], [Seconds] as [%.1f], [Text] verbatim (must hold no space). *)
type value = Int of int | Ms of float | Seconds of float | Text of string

(** {2 Registration} — each call appends its keys to the line. *)

type total

val total : t -> string -> total
(** [key=] the sum of the counters later registered [~into] it. *)

type counter

val counter : ?into:total list -> t -> string -> counter
(** [key=] a count starting at 0, also summed into every total of
    [into]. *)

val incr : counter -> unit
val add : counter -> int -> unit

type histogram
type stat = Mean | Percentile of float | Max

val histogram : t -> (string * stat) list -> histogram
(** One key per listed statistic of the observations, in
    milliseconds; 0 while empty. *)

val observe : histogram -> float -> unit
(** Record one observation, in seconds. Thread-safe. *)

val gauge : t -> string -> (unit -> value) -> unit
(** [key=] whatever the function returns, read at every render. *)

val group : t -> (unit -> 'a) -> (string * ('a -> value)) list -> unit
(** Several keys off one read of their source per render. *)

(** {2 Reading} *)

val render : t -> string
(** ["STATS k=v k=v ..."], one line, keys in registration order. *)

val field : string -> string -> string option
(** [field line key] is the value of [key=] in a [STATS] (or any
    space-separated key=value) line. The key must follow a space, so
    [docs] never matches inside [segment_docs=]. *)

val int_field : string -> string -> int option
(** {!field}, as an integer. *)
