(** The line-oriented request protocol spoken by {!Server}.

    One request per line, one response line per request (so a client
    can pipeline naively). Grammar:

    {v
    request  ::= "SEARCH" family alpha k term+   ; top-k query
               | "ADDDOC" text                   ; ingest one document
               | "DELDOC" id                     ; tombstone a document
               | "FLUSH"                         ; seal the memtable (durability barrier)
               | "PING"                          ; liveness probe
               | "STATS"                         ; metrics snapshot
               | "QUIT"                          ; close the connection
    family   ::= "win" | "med" | "max"
    alpha    ::= float >= 0                      ; distance decay rate
    k        ::= int in [0, 10000]
    term     ::= a Pj_matching.Query_parser spec (no spaces)
    text     ::= the rest of the line, verbatim  ; tokenized server-side
    id       ::= int >= 0                        ; a doc id from ADDED
    v}

    Responses: ["HITS n doc:score ..."], ["OK-DEGRADED shards=i,j HITS
    n doc:score ..."] (a complete answer from the surviving shards
    when shards [i,j] failed or blew the deadline — see
    {!Pj_engine.Shard_searcher.search_degraded}), ["ADDED id"],
    ["DELETED id"], ["FLUSHED gen=g segments=n"], ["PONG"], ["BYE"],
    ["BUSY"] (queue full), ["TIMEOUT"] (deadline exceeded),
    ["ERR reason"], or a single ["STATS ..."] key=value line. A
    malformed request yields [ERR] and leaves the connection open.
    The write verbs require a server started over a live index
    ([--live]); a read-only server answers them with [ERR]. *)

type search_request = {
  family : string;  (** "win", "med" or "max" — validated by the parser *)
  alpha : float;
  k : int;
  terms : string list;  (** non-empty *)
}

type request =
  | Ping
  | Stats
  | Quit
  | Search of search_request
  | Add_doc of string  (** raw document text, surrounding blanks stripped *)
  | Del_doc of int
  | Flush

val parse_request : string -> (request, string) result
(** Parse one request line (whitespace-tolerant, ["\r"]-tolerant).
    [ADDDOC]'s document text is taken verbatim from the line (internal
    spacing preserved — token positions matter to proximity scoring);
    everything else is parsed word-wise. Errors name the offending
    argument and never raise. *)

val scoring_of :
  family:string -> alpha:float -> (Pj_core.Scoring.t, string) result
(** The paper's exponential WIN/MED and sum-MAX instances, keyed by
    family name — the same mapping the CLI uses. *)

val cache_key : search_request -> string
(** Cache key: scoring family, alpha, k, and the terms in request
    order. Term order is part of the key because floating-point MAX and
    MED scores can depend on it in the last bit. *)

val text_precision : int
(** Significant digits of a score on the text wire (9): short enough
    for humans, stable across rendering. *)

val exact_precision : int
(** Significant digits on the binary wire (17): a float64 round-trips
    [Printf "%.17g"] → [float_of_string] exactly, so a router can
    parse a backend's scores, merge, and re-render byte-identically
    to a single-process server. *)

val string_of_hits :
  ?precision:int -> Pj_engine.Searcher.hit list -> string
(** ["HITS n doc:score ..."] — the canonical SEARCH response line.
    [precision] is the score's significant digits, default
    {!text_precision}. *)

val string_of_id_scores : ?precision:int -> (int * float) list -> string
(** {!string_of_hits} over bare [(doc_id, score)] pairs — the form a
    router holds after parsing backend responses. *)

val parse_hits : string -> ((int * float) list, string) result
(** Parse a ["HITS n doc:score ..."] line back into pairs (strict:
    count must match, ids non-negative). The inverse of
    {!string_of_id_scores} at {!exact_precision}. *)

val ok_degraded :
  ?precision:int ->
  failed_shards:int list ->
  Pj_engine.Searcher.hit list ->
  string
(** ["OK-DEGRADED shards=1,3 HITS n doc:score ..."]: the surviving
    shards' merged top-k plus which shard indexes are missing from
    it. Never cached (see {!cacheable}). *)

val ok_degraded_ids :
  ?precision:int -> failed_shards:int list -> (int * float) list -> string
(** {!ok_degraded} over bare pairs, for the router's merged legs. *)

val cacheable : string -> bool
(** Whether a response line may be stored in (and replayed from) the
    {!Result_cache}: only complete ["HITS ..."] lines are — [TIMEOUT],
    [OK-DEGRADED], [BUSY] and [ERR] describe one request's luck, not
    the query's answer. *)

val is_search_success : string -> bool
(** The response carries hits (complete or degraded) — what latency
    metrics observe. *)

val added : int -> string
(** ["ADDED id"] — the new document's global doc id. *)

val deleted : int -> string
(** ["DELETED id"]. *)

val flushed : generation:int -> segments:int -> string
(** ["FLUSHED gen=g segments=n"] — the durable generation and sealed
    segment count after the flush. *)

val is_ingest_success : string -> bool
(** The response acknowledges a completed write ([ADDED]/[DELETED]/
    [FLUSHED]) — what the ingest latency histogram observes. Ingest
    responses are never cacheable. *)

val pong : string
val bye : string
val busy : string
val timeout : string

val err : string -> string
(** ["ERR reason"], sanitized to a single line: every run of
    whitespace/control bytes (newlines, tabs, NUL, escapes) in the
    reason — exception messages are arbitrary — collapses to one
    space, leading/trailing runs are dropped. *)

val max_k : int
val max_terms : int

val max_line_bytes : int
(** Longest request line accepted, in bytes, newline excluded (4096).
    {!parse_request} rejects longer strings, and the server's
    connection reader stops buffering at this cap — a client streaming
    an endless line costs at most this much memory before the
    connection is failed. *)
