type config = {
  host : string;
  port : int;
  domains : int;
  queue_capacity : int;
  cache_capacity : int;
  deadline_s : float;
  drain_s : float;
  log_every_s : float option;
  binary_inflight : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    domains = Pj_util.Parallel.recommended_domains ();
    queue_capacity = 64;
    cache_capacity = 1024;
    deadline_s = 2.0;
    drain_s = 5.0;
    log_every_s = None;
    binary_inflight = 32;
  }

type forward_outcome =
  | Forwarded_hits of (int * float) list
  | Forwarded_degraded of (int * float) list * int list
  | Forwarded_timeout
  | Forwarded_busy
  | Forwarded_error of string

type forward = {
  search :
    Protocol.search_request -> deadline:float -> (forward_outcome -> unit) -> unit;
  on_epoch : (int -> unit) -> unit;
}

(* One live connection. The handler thread is stored next to the fd so
   [stop] can join exactly the threads still running: entries are
   removed by [handle_connection] on exit, so the table never outgrows
   the set of open connections (the old [conn_threads] list kept every
   thread ever accepted alive for the server's lifetime). *)
type conn = {
  fd : Unix.file_descr;
  mutable thread : Thread.t option;
      (* [None] only in the window between accept and [Thread.create]
         returning; a conn observed without a thread at [stop] time has
         nothing running to join. *)
}

(* What the request paths bump. *)
type stats = {
  searches : Metrics.counter;
  served : Metrics.counter;  (* searches answered with a HITS line *)
  pings : Metrics.counter;
  stats_requests : Metrics.counter;
  parse_errors : Metrics.counter;
  search_errors : Metrics.counter;
  busy : Metrics.counter;
  timeouts : Metrics.counter;
  degraded : Metrics.counter;
  shard_failures : Metrics.counter;
  adds : Metrics.counter;
  deletes : Metrics.counter;
  flushes : Metrics.counter;
  ingest_errors : Metrics.counter;
  ingest_batches : Metrics.counter;
  batched_adds : Metrics.counter;
  latency : Metrics.histogram;
  ingest_latency : Metrics.histogram;
}

(* The whole STATS line, in order: the request taxonomy, the pool and
   cache, the latency histograms, the live index's section (when there
   is one), then whatever the caller registers. Errors are counted at
   two levels and never mixed: a parse error is a request line that
   never became a command — a request in its own right — while a
   search or ingest error is a request already counted under its verb.
   So [requests] sums the verbs and the parse errors, never [errors]:
   summing both would count every failed request twice. *)
let register_stats m ~pool ~cache ~live ~extra =
  let started = Pj_util.Timing.monotonic_now () in
  Metrics.gauge m "uptime_s" (fun () ->
      Metrics.Seconds (Pj_util.Timing.monotonic_now () -. started));
  let requests = Metrics.total m "requests" in
  let request = Metrics.counter m ~into:[ requests ] in
  let searches = request "searches" in
  let served = Metrics.counter m "served" in
  let pings = request "pings" in
  let stats_requests = request "stats" in
  let errors = Metrics.total m "errors" in
  let parse_errors =
    Metrics.counter m ~into:[ requests; errors ] "parse_errors"
  in
  let search_errors = Metrics.counter m ~into:[ errors ] "search_errors" in
  let busy = Metrics.counter m "busy" in
  let timeouts = Metrics.counter m "timeouts" in
  (* How often clients see partial answers, and how flaky the shards
     are: one OK-DEGRADED response bumps [degraded] once and
     [shard_failures] by its number of failed legs. *)
  let degraded = Metrics.counter m "degraded" in
  let shard_failures = Metrics.counter m "shard_failures" in
  let adds = request "adds" in
  let deletes = request "deletes" in
  let flushes = request "flushes" in
  let ingest_errors = Metrics.counter m ~into:[ errors ] "ingest_errors" in
  (* [batched_adds / ingest_batches] is the achieved group-commit
     factor. *)
  let ingest_batches = Metrics.counter m "ingest_batches" in
  let batched_adds = Metrics.counter m "batched_adds" in
  (* The supervisor owns the pool's numbers; a router front has no
     pool and reports 0. *)
  let pool_int key f =
    Metrics.gauge m key (fun () ->
        Metrics.Int (Option.fold ~none:0 ~some:f pool))
  in
  pool_int "worker_panics" Worker_pool.panics;
  pool_int "worker_respawns" Worker_pool.respawns;
  Metrics.group m
    (fun () -> Result_cache.stats cache)
    [
      ("cache_hits", fun (h, _, _) -> Metrics.Int h);
      ("cache_misses", fun (_, mi, _) -> Metrics.Int mi);
      ("cache_len", fun (_, _, n) -> Metrics.Int n);
    ];
  pool_int "queue_len" Worker_pool.queue_length;
  pool_int "domains" Worker_pool.domains;
  (* Healthy searches only: a degraded answer often burns its whole
     deadline on the failed leg, which would smear these percentiles. *)
  let latency =
    Metrics.histogram m
      [
        ("lat_mean_ms", Metrics.Mean);
        ("p50_ms", Metrics.Percentile 50.);
        ("p95_ms", Metrics.Percentile 95.);
        ("p99_ms", Metrics.Percentile 99.);
        ("max_ms", Metrics.Max);
      ]
  in
  (* A FLUSH's fsync-bound latency has nothing in common with a
     search's. *)
  let ingest_latency =
    Metrics.histogram m
      [
        ("ingest_p50_ms", Metrics.Percentile 50.);
        ("ingest_p99_ms", Metrics.Percentile 99.);
      ]
  in
  Option.iter
    (fun live ->
      (* One read per render, so [docs = segment_docs + memtable_docs -
         tombstones] holds on the line. *)
      let module L = Pj_live.Live_index in
      Metrics.group m
        (fun () -> L.stats live)
        [
          ("live", fun _ -> Metrics.Int 1);
          ("docs", fun s -> Metrics.Int s.L.docs);
          ("total_docs", fun s -> Metrics.Int s.L.total_docs);
          ("segments", fun s -> Metrics.Int s.L.segments);
          ("segment_docs", fun s -> Metrics.Int s.L.segment_docs);
          ("memtable_docs", fun s -> Metrics.Int s.L.memtable_docs);
          ("tombstones", fun s -> Metrics.Int s.L.tombstones);
          ("generation", fun s -> Metrics.Int s.L.generation);
          ("merges", fun s -> Metrics.Int s.L.merges);
          ("index_flushes", fun s -> Metrics.Int s.L.flushes);
          ("wal_appends", fun s -> Metrics.Int s.L.wal_appends);
          ("wal_fsyncs", fun s -> Metrics.Int s.L.wal_fsyncs);
          ("durable_lag", fun s -> Metrics.Int s.L.durable_lag);
          ("merge_errors", fun s -> Metrics.Int s.L.merge_errors);
        ])
    live;
  extra m;
  {
    searches;
    served;
    pings;
    stats_requests;
    parse_errors;
    search_errors;
    busy;
    timeouts;
    degraded;
    shard_failures;
    adds;
    deletes;
    flushes;
    ingest_errors;
    ingest_batches;
    batched_adds;
    latency;
    ingest_latency;
  }

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  port : int;
  graph : Pj_ontology.Graph.t;
  pool : Worker_pool.t option;
      (* [None] on a router front (a [forward] and no live index):
         nothing would ever run on a pool there, so no worker domain or
         supervisor thread is started. Work submitted without a pool is
         refused. *)
  live : Pj_live.Live_index.t option;
  batcher : Ingest_batcher.t option; (* Some iff [live] is Some *)
  cache : Result_cache.t;
  metrics : Metrics.t;
  stats : stats;
  forward : forward option;
      (* A router's scatter-gather, replacing the worker pool for
         SEARCH: parse/validate/cache/metrics stay here, result
         production is remote. *)
  running : bool Atomic.t;
  inflight : int Atomic.t;
      (* Requests between line-read and response-flush; what [stop]'s
         drain phase waits on. Handler threads parked in [read] don't
         count — they have nothing half-answered to lose. *)
  mutable accept_thread : Thread.t option;
  mutable log_thread : Thread.t option;
  conns : (int, conn) Hashtbl.t;
  conns_mutex : Mutex.t;
}

let port t = t.port
let cache t = t.cache
let inflight t = Atomic.get t.inflight
let stats_line t = Metrics.render t.metrics

(* Every request is answered through a [reply] completion, called
   exactly once: inline on the connection's reader thread for cache
   hits, PING, STATS, errors and refusals; later, from a worker domain
   or a router leg's completion, for work that went to the pool or the
   backends. A request handler hands [reply] off as its very last
   action, so one that raises has neither called it nor given it away.
   Nothing on these paths blocks. *)

(* A finished SEARCH: a HITS answer is served and timed, then the
   answer goes out. *)
let search_done t ~t0 reply response =
  if Protocol.cacheable response then begin
    Metrics.incr t.stats.served;
    Metrics.observe t.stats.latency (Pj_util.Timing.monotonic_now () -. t0)
  end;
  reply response

let degraded t n_failed =
  Metrics.incr t.stats.degraded;
  Metrics.add t.stats.shard_failures n_failed

(* The response line for a router's outcome. [precision] is the score
   rendering of the client's wire (text or binary); the metrics
   taxonomy is the same as for local results. *)
let forwarded_response t ~precision ~key ~generation = function
  | Forwarded_hits pairs ->
      let response = Protocol.string_of_id_scores ~precision pairs in
      Result_cache.add ~generation t.cache key response;
      response
  | Forwarded_degraded (pairs, failed_legs) ->
      degraded t (List.length failed_legs);
      Protocol.ok_degraded_ids ~precision ~failed_shards:failed_legs pairs
  | Forwarded_timeout ->
      Metrics.incr t.stats.timeouts;
      Protocol.timeout
  | Forwarded_busy ->
      Metrics.incr t.stats.busy;
      Protocol.busy
  | Forwarded_error msg ->
      Metrics.incr t.stats.search_errors;
      Protocol.err msg

let local_response t ~precision ~key ~generation = function
  | Worker_pool.Hits hits ->
      let response = Protocol.string_of_hits ~precision hits in
      Result_cache.add ~generation t.cache key response;
      response
  | Worker_pool.Degraded (hits, failed) ->
      (* A partial answer is this request's shard luck, not the query's
         answer — flag it, count it, and keep it out of the cache so the
         next attempt gets a fresh scatter-gather. *)
      degraded t (List.length failed);
      Protocol.ok_degraded ~precision ~failed_shards:failed hits
  | Worker_pool.Timed_out ->
      Metrics.incr t.stats.timeouts;
      Protocol.timeout
  | Worker_pool.Failed msg ->
      Metrics.incr t.stats.search_errors;
      Protocol.err msg

(* Run one validated SEARCH that missed the cache under [generation],
   either remotely (a router's scatter-gather [forward]) or on the
   local worker pool. *)
let execute_search t (sr : Protocol.search_request) ~precision ~key
    ~generation ~t0 reply =
  (* Monotonic clock: an NTP step must not expire (or extend) every
     in-flight query's budget. *)
  let deadline = t0 +. t.config.deadline_s in
  let search_error msg =
    Metrics.incr t.stats.search_errors;
    search_done t ~t0 reply (Protocol.err msg)
  in
  match t.forward with
  | Some forward ->
      forward.search sr ~deadline (fun outcome ->
          search_done t ~t0 reply
            (forwarded_response t ~precision ~key ~generation outcome))
  | None -> begin
      match Protocol.scoring_of ~family:sr.Protocol.family ~alpha:sr.Protocol.alpha with
      | Error msg -> search_error msg
      | Ok scoring -> begin
          match Pj_matching.Query_parser.parse t.graph sr.Protocol.terms with
          | Error msg -> search_error msg
          | Ok query ->
              (* The served index is built over Porter stems (see the
                 serve subcommand), so matcher expansions are stemmed to
                 the same normalization — as in [proxjoin isearch]. *)
              let query =
                {
                  query with
                  Pj_matching.Query.matchers =
                    Array.map Pj_matching.Matcher.stem_expansions
                      query.Pj_matching.Query.matchers;
                }
              in
              let queued =
                Option.fold ~none:false t.pool ~some:(fun pool ->
                    Worker_pool.submit pool ~scoring ~k:sr.Protocol.k ~deadline
                      query (fun outcome ->
                        search_done t ~t0 reply
                          (local_response t ~precision ~key ~generation outcome)))
              in
              if not queued then begin
                Metrics.incr t.stats.busy;
                search_done t ~t0 reply Protocol.busy
              end
        end
    end

(* Answer one SEARCH. The cache is consulted before the worker pool
   (or router legs), so a repeated query costs one hash lookup and no
   queue slot; live results are rendered once and cached as the final
   response line. Text and binary clients render scores at different
   precisions, so the cache key carries the precision — the cached
   value is a fully rendered line of one wire dialect. *)
let handle_search t (sr : Protocol.search_request) ~precision reply =
  let t0 = Pj_util.Timing.monotonic_now () in
  let key = Printf.sprintf "%d|%s" precision (Protocol.cache_key sr) in
  match Result_cache.lookup t.cache key with
  | `Hit response -> search_done t ~t0 reply response
  | `Miss generation -> execute_search t sr ~precision ~key ~generation ~t0 reply

(* Answer one write verb (ADDDOC/DELDOC/FLUSH). Writes ride the same
   worker pool and bounded queue as searches — one backpressure bound,
   one supervision story — but through [submit_task], which has no
   deadline: a write the queue accepted is carried out, because a
   client that has seen ADDED must find the document. The ingest verbs
   are serialized by the live index's writer lock, so concurrent
   clients interleave whole operations, never partial ones. ADDDOCs
   additionally group-commit through [Ingest_batcher]: stemming runs
   on the connection's reader thread (parallel across clients), then
   adds that arrive while a batch commits coalesce into the next
   [add_batch] — one queue slot, one writer-lock acquisition and one
   generation bump per batch. *)
let handle_ingest t request reply =
  let t0 = Pj_util.Timing.monotonic_now () in
  let finish response =
    if Protocol.is_ingest_success response then
      Metrics.observe t.stats.ingest_latency
        (Pj_util.Timing.monotonic_now () -. t0)
    else if response = Protocol.busy then Metrics.incr t.stats.busy
    else
      (* Includes a task answering ERR itself (e.g. DELDOC of an
         unknown id) — an ingest error even though the worker ran
         fine. *)
      Metrics.incr t.stats.ingest_errors;
    reply response
  in
  match (t.live, request) with
  | None, _ -> finish (Protocol.err "not serving a live index (start with --live)")
  | Some _, Protocol.Add_doc text ->
      (* Same normalization as the corpus the server was seeded from. *)
      Ingest_batcher.enqueue (Option.get t.batcher)
        (Pj_text.Analyzer.stems text) finish
  | Some live, _ ->
      let task () =
        match request with
        | Protocol.Del_doc id -> begin
            match Pj_live.Live_index.delete live id with
            | Ok () -> Protocol.deleted id
            | Error `Not_found ->
                Protocol.err (Printf.sprintf "no such document %d" id)
          end
        | Protocol.Flush ->
            let generation = Pj_live.Live_index.flush live in
            let stats = Pj_live.Live_index.stats live in
            Protocol.flushed ~generation
              ~segments:stats.Pj_live.Live_index.segments
        | Protocol.Add_doc _ | Protocol.Ping | Protocol.Stats | Protocol.Quit
        | Protocol.Search _ ->
            assert false (* ADDDOC goes through the batcher above *)
      in
      let queued =
        Option.fold ~none:false t.pool ~some:(fun pool ->
            Worker_pool.submit_task pool task (function
              | Ok line -> finish line
              | Error msg -> finish (Protocol.err msg)))
      in
      if not queued then finish Protocol.busy

(* Answer one request line through [reply]; [false] ends the
   connection (after QUIT's BYE). *)
let respond t ~precision line ~reply =
  match Protocol.parse_request line with
  | Error msg ->
      Metrics.incr t.stats.parse_errors;
      reply (Protocol.err msg);
      true
  | Ok Protocol.Ping ->
      Metrics.incr t.stats.pings;
      reply Protocol.pong;
      true
  | Ok Protocol.Quit ->
      reply Protocol.bye;
      false
  | Ok Protocol.Stats ->
      Metrics.incr t.stats.stats_requests;
      reply (stats_line t);
      true
  | Ok (Protocol.Search sr) ->
      Metrics.incr t.stats.searches;
      handle_search t sr ~precision reply;
      true
  | Ok ((Protocol.Add_doc _ | Protocol.Del_doc _ | Protocol.Flush) as req) ->
      (match req with
      | Protocol.Add_doc _ -> Metrics.incr t.stats.adds
      | Protocol.Del_doc _ -> Metrics.incr t.stats.deletes
      | _ -> Metrics.incr t.stats.flushes);
      handle_ingest t req reply;
      true

let register_conn t id conn =
  Mutex.lock t.conns_mutex;
  Hashtbl.replace t.conns id conn;
  Mutex.unlock t.conns_mutex

let set_conn_thread t id thread =
  Mutex.lock t.conns_mutex;
  (match Hashtbl.find_opt t.conns id with
  | Some conn -> conn.thread <- Some thread
  | None ->
      (* The handler already ran to completion and unregistered itself;
         the thread is (as good as) done, so there is nothing for
         [stop] to join. *)
      ());
  Mutex.unlock t.conns_mutex

let unregister_conn t id =
  Mutex.lock t.conns_mutex;
  Hashtbl.remove t.conns id;
  Mutex.unlock t.conns_mutex

let connections t =
  Mutex.lock t.conns_mutex;
  let n = Hashtbl.length t.conns in
  Mutex.unlock t.conns_mutex;
  n

(* Read one newline-terminated request, never buffering more than
   [Protocol.max_line_bytes] of it. [input_line] would buffer the
   whole line before the parser's length check ever saw it, so a
   client streaming bytes without a newline could grow the heap
   without bound; here the line is abandoned the moment it exceeds
   the cap. Trailing bytes before EOF count as a line, as with
   [input_line]. *)
let read_line_bounded ic =
  let buf = Buffer.create 256 in
  let rec go () =
    match input_char ic with
    | exception End_of_file ->
        if Buffer.length buf = 0 then `Eof else `Line (Buffer.contents buf)
    | '\n' -> `Line (Buffer.contents buf)
    | c ->
        if Buffer.length buf >= Protocol.max_line_bytes then `Too_long
        else begin
          Buffer.add_char buf c;
          go ()
        end
  in
  go ()

(* The text dialect is one request at a time: the reader waits for
   its request's completion, writes the line, then reads the next. *)
let handle_text t ic oc =
  let rec loop () =
    match read_line_bounded ic with
    | exception Sys_error _ -> ()
    | `Eof -> ()
    | `Too_long ->
        (* One diagnostic, then the connection is failed: the rest of
           the over-long line is unread, so the stream can no longer
           be parsed at request boundaries. *)
        Metrics.incr t.stats.parse_errors;
        output_string oc (Protocol.err "request line too long");
        output_char oc '\n';
        flush oc
    | `Line line ->
        (* In-flight from line-read to response-flush, exception-safe:
           [stop]'s drain phase must never wait on a request whose
           handler already died. *)
        Atomic.incr t.inflight;
        let continue =
          Fun.protect
            ~finally:(fun () -> Atomic.decr t.inflight)
            (fun () ->
              (* Chaos site for connection handling itself: an injected
                 error (or panic) here tears down this connection only
                 — the catch-all in [handle_connection] owns the
                 cleanup. *)
              Pj_util.Failpoint.hit "server.conn";
              let response = Pj_util.Ivar.create () in
              let continue =
                respond t ~precision:Protocol.text_precision line
                  ~reply:(Pj_util.Ivar.fill response)
              in
              output_string oc (Pj_util.Ivar.read response);
              output_char oc '\n';
              flush oc;
              continue)
        in
        if continue then loop ()
  in
  loop ()

(* A binary connection's response frames, handed from completions to
   the connection's one writer thread. *)
type outbox = {
  om : Mutex.t;
  oc_ready : Condition.t;
  frames : Pj_frame.Frame.t Queue.t;
  mutable closed : bool;
}

let post box frame =
  Mutex.lock box.om;
  Queue.push frame box.frames;
  Condition.signal box.oc_ready;
  Mutex.unlock box.om

(* The writer: whatever frames are waiting go out in one flush. Each
   [Response] frame holds one in-flight slot of its connection, given
   back once the frame is written — or dropped, once the socket has
   failed: a client that stopped reading then stalls only this thread
   and, through the slots, its own reader. *)
let write_frames t box oc slots =
  let batch = Queue.create () in
  let rec loop ~broken =
    Mutex.lock box.om;
    while Queue.is_empty box.frames && not box.closed do
      Condition.wait box.oc_ready box.om
    done;
    Queue.transfer box.frames batch;
    Mutex.unlock box.om;
    if not (Queue.is_empty batch) then begin
      let broken =
        broken
        ||
        match
          Queue.iter (Pj_frame.Wire.write oc) batch;
          flush oc
        with
        | () -> false
        | exception _ -> true
      in
      Queue.iter
        (fun (f : Pj_frame.Frame.t) ->
          if f.Pj_frame.Frame.kind = Pj_frame.Frame.Response then begin
            Atomic.decr t.inflight;
            Semaphore.Counting.release slots
          end)
        batch;
      Queue.clear batch;
      loop ~broken
    end
  in
  loop ~broken:false

(* The binary dialect of the same request/response protocol: framed,
   CRC-checked, and pipelined — request ids let [binary_inflight]
   requests from one connection be answered as they complete, out of
   order. The reader (this thread) parses each request and [respond]s
   to it; every response frame reaches the socket through the writer
   thread, whichever thread completed it. The in-flight cap is a
   counting semaphore: when every slot is taken the reader stops
   reading the socket, which is exactly TCP backpressure, not request
   shedding. *)
let handle_binary t ic oc =
  let cap = t.config.binary_inflight in
  let slots = Semaphore.Counting.make cap in
  let box =
    {
      om = Mutex.create ();
      oc_ready = Condition.create ();
      frames = Queue.create ();
      closed = false;
    }
  in
  let writer = Thread.create (fun () -> write_frames t box oc slots) () in
  (* A broken stream (torn/corrupt/oversized frame, or a non-request
     frame) gets one framed diagnostic, then the connection is failed
     — the frame boundary is lost, mirroring the text side's
     "request line too long". *)
  let fatal msg =
    Metrics.incr t.stats.parse_errors;
    post box
      {
        Pj_frame.Frame.kind = Pj_frame.Frame.Error_frame;
        id = 0;
        payload = Protocol.err msg;
      }
  in
  let request_cap = Protocol.max_line_bytes + 64 in
  let rec rloop () =
    match Pj_frame.Wire.read ~max_body:request_cap ic with
    | exception Sys_error _ -> ()
    | Pj_frame.Wire.Closed -> ()
    | Pj_frame.Wire.Bad e ->
        fatal
          (match e with
          | Pj_frame.Frame.Oversized n ->
              Printf.sprintf "frame too large (%d bytes, max %d)" n request_cap
          | Pj_frame.Frame.Truncated what -> "truncated frame: " ^ what
          | Pj_frame.Frame.Corrupt what -> "corrupt frame: " ^ what)
    | Pj_frame.Wire.Frame { Pj_frame.Frame.kind = Pj_frame.Frame.Request; id; payload } ->
        Semaphore.Counting.acquire slots;
        Atomic.incr t.inflight;
        (* The slot is given back exactly once: by the writer for the
           posted answer, or here if [respond] raised — in which case
           a completion it may have handed off finds the request
           answered and drops its frame. *)
        let answered = Atomic.make false in
        let reply response =
          if not (Atomic.exchange answered true) then
            post box
              {
                Pj_frame.Frame.kind = Pj_frame.Frame.Response;
                id;
                payload = response;
              }
        in
        let continue =
          match
            Pj_util.Failpoint.hit "server.conn";
            respond t ~precision:Protocol.exact_precision payload ~reply
          with
          | continue -> continue
          | exception _ ->
              (* As on the text side: this connection is torn down. *)
              if not (Atomic.exchange answered true) then begin
                Atomic.decr t.inflight;
                Semaphore.Counting.release slots
              end;
              false
        in
        if continue then rloop ()
    | Pj_frame.Wire.Frame _ -> fatal "unexpected frame kind (want request)"
  in
  (try rloop () with _ -> ());
  (* Every answer still owed is written (or dropped) before the fd can
     be closed: once all slots are back no completion holds this
     connection, so none can write into a closed — or reused — fd. *)
  for _ = 1 to cap do
    Semaphore.Counting.acquire slots
  done;
  Mutex.lock box.om;
  box.closed <- true;
  Condition.signal box.oc_ready;
  Mutex.unlock box.om;
  Thread.join writer

let handle_connection t id fd =
  (* Any per-connection failure (client gone mid-write, etc.) closes
     this connection only; the accept loop and other connections are
     unaffected. One listening socket serves both protocol dialects:
     the first byte classifies the connection (text verbs are ASCII,
     binary frames start with 0xB1) without consuming anything. *)
  (try
     match Pj_frame.Wire.sniff fd with
     | `Eof -> ()
     | (`Text | `Binary) as sniffed ->
         let ic = Unix.in_channel_of_descr fd in
         let oc = Unix.out_channel_of_descr fd in
         (match sniffed with
         | `Text -> handle_text t ic oc
         | `Binary -> handle_binary t ic oc)
   with _ -> ());
  unregister_conn t id;
  try Unix.close fd with Unix.Unix_error _ -> ()

let accept_loop t =
  let next_id = ref 0 in
  while Atomic.get t.running do
    match Unix.accept t.listen_fd with
    | fd, _ ->
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        let id = !next_id in
        incr next_id;
        register_conn t id { fd; thread = None };
        let thread = Thread.create (fun () -> handle_connection t id fd) () in
        set_conn_thread t id thread
    | exception Unix.Unix_error _ ->
        (* [stop] closes the listening socket to break us out; anything
           else (EMFILE, ECONNABORTED) is transient — keep accepting. *)
        if Atomic.get t.running then Thread.yield ()
  done

let log_loop t period =
  let rec sleep remaining =
    if remaining > 0. && Atomic.get t.running then begin
      Thread.delay (Float.min remaining 0.25);
      sleep (remaining -. 0.25)
    end
  in
  while Atomic.get t.running do
    sleep period;
    if Atomic.get t.running then
      Printf.eprintf "[pj_server] %s\n%!" (stats_line t)
  done

let static_docs n m = Metrics.gauge m "docs" (fun () -> Metrics.Int n)

let start ?(config = default_config) ?live ?forward ?(stats = ignore) ~graph
    search =
  if config.binary_inflight < 1 then
    invalid_arg "Server.start: binary_inflight must be >= 1";
  (* A client that hangs up before its answer is written must cost a
     failed write on its own connection, not the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port) in
  (try Unix.bind listen_fd addr
   with e ->
     Unix.close listen_fd;
     raise e);
  Unix.listen listen_fd 128;
  let port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> config.port
  in
  let pool =
    if Option.is_some forward && Option.is_none live then None
    else
      Some
        (Worker_pool.create ~domains:config.domains
           ~queue_capacity:config.queue_capacity search)
  in
  let cache = Result_cache.create ~capacity:config.cache_capacity in
  let metrics = Metrics.create () in
  let counters = register_stats metrics ~pool ~cache ~live ~extra:stats in
  let batcher =
    match (live, pool) with
    | Some live, Some pool ->
        Some
          (Ingest_batcher.create
             ~on_batch:(fun ~size ->
               Metrics.incr counters.ingest_batches;
               Metrics.add counters.batched_adds size)
             pool live)
    | _ -> None
  in
  let t =
    {
      config;
      listen_fd;
      port;
      graph;
      pool;
      live;
      batcher;
      forward;
      cache;
      metrics;
      stats = counters;
      running = Atomic.make true;
      inflight = Atomic.make 0;
      accept_thread = None;
      log_thread = None;
      conns = Hashtbl.create 64;
      conns_mutex = Mutex.create ();
    }
  in
  (match live with
  | Some live ->
      (* Every generation swap (add, delete, flush, merge) switches the
         cache's key namespace, so a response computed against an older
         snapshot can never be replayed. Seed with the current
         generation: the index may have been recovered from disk at
         gen > 0. *)
      Result_cache.set_generation t.cache
        (Pj_live.Live_index.generation live);
      Pj_live.Live_index.on_swap live (fun gen ->
          Result_cache.set_generation t.cache gen)
  | None -> ());
  (* A router front's cache is namespaced by the cluster epoch the same
     way: a backend going down (or coming back) makes every HITS cached
     before it unreachable. *)
  Option.iter
    (fun f -> f.on_epoch (fun epoch -> Result_cache.set_generation t.cache epoch))
    forward;
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  (match config.log_every_s with
  | Some period when period > 0. ->
      t.log_thread <- Some (Thread.create (fun () -> log_loop t period) ())
  | Some _ | None -> ());
  t

let stop_with ~drain t =
  if Atomic.exchange t.running false then begin
    (* Closing the listening socket breaks the accept loop out of
       [Unix.accept]. *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (* Join the accept loop first: once it is gone, no new conns can
       appear and every registered conn has had [set_conn_thread] run,
       so the snapshot below is complete. *)
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (* Drain: requests already read off a socket get up to [drain_s]
       to finish and flush their response before connections are
       forced closed. Handler threads parked in [read] hold no
       half-answered request and are not waited for. [kill] skips
       this phase entirely — in-flight requests lose their answers,
       as they would under kill -9. *)
    let drain_deadline =
      Pj_util.Timing.monotonic_now ()
      +. (if drain then t.config.drain_s else 0.)
    in
    while
      drain
      && Atomic.get t.inflight > 0
      && Pj_util.Timing.monotonic_now () < drain_deadline
    do
      Thread.delay 0.002
    done;
    (* Nudge open connections: a shutdown makes their next read see
       end-of-file, so handler threads drain and exit. Only the
       threads of still-registered conns are joined — finished
       handlers already removed themselves. *)
    Mutex.lock t.conns_mutex;
    let conns = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
    Mutex.unlock t.conns_mutex;
    List.iter
      (fun c ->
        try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      conns;
    List.iter
      (fun c -> match c.thread with Some th -> Thread.join th | None -> ())
      conns;
    Option.iter Worker_pool.shutdown t.pool;
    (match t.log_thread with Some th -> Thread.join th | None -> ())
  end

let stop t = stop_with ~drain:true t

(* Chaos support: the socket-level behaviour of kill -9 — every
   connection dropped mid-whatever, no drain, no goodbye. (The kernel
   of a killed process closes its sockets the same way: FIN now, RST
   for anyone who keeps writing.) Threads and domains are still
   joined so the *calling* test process stays leak-free. *)
let kill t = stop_with ~drain:false t

let wait t =
  match t.accept_thread with Some th -> Thread.join th | None -> ()
