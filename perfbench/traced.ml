(* The traced run: the workload's inputs replayed through each layer's
   public functions in process, with a span around every call the
   benchmark makes, plus the server-level numbers that need the real
   processes (round-trip overhead, cache hit ratio) and the cluster
   layers over two slice backends. Spans stay in memory and are written
   at the end to .perfbench_traces/<workload>-<seed>.tsv. Every workload
   reports every layer, each measured over that workload's own
   documents and query lines. *)

module Config = Perfbench_kit.Config
module Tail = Perfbench_kit.Tail
module Trace = Perfbench_kit.Trace
module Schedule = Perfbench_kit.Schedule
module Stats = Pj_util.Stats
module Protocol = Pj_server.Protocol
module Searcher = Pj_engine.Searcher
module Live = Pj_live.Live_index

type t = { metrics : (string * float * string) list; attempted : int; mismatches : int }

let now = Pj_util.Timing.monotonic_now
let ms s = s *. 1000.
let us s = s *. 1e6
let median a = if Array.length a = 0 then Float.nan else Stats.median a
let far () = now () +. 60.

(* How much of each workload the in-process replay takes. *)
let engine_lines = 1000
let decompose_lines = 300
let candidates_per_line = 50
let cluster_lines = 1000
let rtt_lines = 300
let replay_requests = 1000
let live_docs = 1024

type run = {
  ctx : Workloads.ctx;
  trace : Trace.t;
  mutable out : (string * float * string) list;
  mutable checked : int;
  mutable mismatches : int;
}

let report r name v unit = r.out <- (name, v, unit) :: r.out

let check r ~what got expected =
  r.checked <- r.checked + 1;
  if got <> expected then begin
    r.mismatches <- r.mismatches + 1;
    if r.mismatches <= 3 then
      Printf.printf "MISMATCH %s\n  got      %s\n  expected %s\n" what got expected
  end

(* Durations of the spans called [name], seconds. *)
let durations r name =
  Trace.spans r.trace
  |> Array.to_list
  |> List.filter_map (fun s -> if s.Trace.name = name then Some (Trace.duration s) else None)
  |> Array.of_list

let span r name f = Trace.with_span r.trace ~parent:(-1) ~name ~request:(-1) f

(* --- pj_index / pj_ondisk ------------------------------------------------ *)

let index_layers r ~docs ~file =
  let corpus = Gen.corpus docs in
  let idx = span r "inverted_index.build" (fun () -> Pj_index.Inverted_index.build corpus) in
  span r "writer.write" (fun () -> Pj_ondisk.Writer.write idx file);
  let mapped = span r "mapped_index.open" (fun () -> Pj_ondisk.Mapped_index.open_file file) in
  let info = Pj_ondisk.Mapped_index.info mapped in
  report r "inverted_index.build_s" (median (durations r "inverted_index.build")) "s";
  report r "writer.write_s" (median (durations r "writer.write")) "s";
  report r "mapped_index.open_ms" (ms (median (durations r "mapped_index.open"))) "ms";
  report r "ondisk.bytes_per_posting"
    (float_of_int info.Pj_ondisk.Mapped_index.postings_bytes
    /. float_of_int (max 1 info.Pj_ondisk.Mapped_index.n_postings))
    "B";
  (idx, mapped)

(* --- pj_engine / pj_matching / pj_core ----------------------------------- *)

let engine_layers r ~heap ~mapped ~lines =
  let searcher = Searcher.create (Pj_ondisk.Mapped_index.index mapped) in
  let heap_searcher = Searcher.create heap in
  let parsed = Array.map Answers.parse lines in
  let alloc = ref 0. and cands = ref 0 and aligned = ref 0 in
  Array.iteri
    (fun i (s : Answers.search) ->
      let k = s.request.Protocol.k in
      let a0 = Gc.allocated_bytes () in
      let hits = span r "searcher.search" (fun () -> Searcher.search ~k searcher s.scoring s.query) in
      alloc := !alloc +. (Gc.allocated_bytes () -. a0);
      let heap_hits =
        span r "searcher.search.heap" (fun () -> Searcher.search ~k heap_searcher s.scoring s.query)
      in
      check r ~what:("mmap = heap: " ^ lines.(i)) (Answers.render hits) (Answers.render heap_hits);
      let c = span r "searcher.candidates" (fun () -> Searcher.candidates searcher s.query) in
      cands := !cands + Array.length c;
      ignore
        (Searcher.search_fragment ~k
           ~accept:(fun _ ->
             incr aligned;
             true)
           searcher s.scoring s.query))
    parsed;
  let n = float_of_int (Array.length lines) in
  let search_s = durations r "searcher.search" in
  let t99 = Tail.of_samples (Array.map ms search_s) 99. in
  Printf.printf "searcher.search_ms %s\n" (Tail.describe t99);
  report r "searcher.search_ms.p50" (ms (median search_s)) "ms";
  report r "searcher.search_ms.p99" t99.Tail.value "ms";
  report r "searcher.search_ms.heap" (ms (median (durations r "searcher.search.heap"))) "ms";
  report r "searcher.candidates_per_query" (float_of_int !cands /. n) "count";
  report r "searcher.aligned_per_query" (float_of_int !aligned /. n) "count";
  report r "searcher.aligned_ratio" (float_of_int !aligned /. float_of_int (max 1 !cands)) "1";
  report r "searcher.alloc_bytes_per_query" (!alloc /. n) "B";
  (* Scatter over two range views of the same file, the router's split. *)
  let n_docs = Pj_index.Corpus.size (Pj_ondisk.Mapped_index.corpus mapped) in
  let sharded =
    Pj_engine.Shard_searcher.create
      (Pj_index.Sharded_index.of_prebuilt (Pj_ondisk.Mapped_index.corpus mapped)
         ~counts:[| n_docs / 2; n_docs - (n_docs / 2) |]
         ~shard_of:(fun _ ~pos ~len -> Pj_ondisk.Mapped_index.shard_index mapped ~pos ~len))
  in
  Array.iter
    (fun (s : Answers.search) ->
      ignore
        (span r "shard_searcher.search" (fun () ->
             Pj_engine.Shard_searcher.search ~k:s.request.Protocol.k sharded s.scoring s.query)))
    parsed;
  report r "shard_searcher.search_ms" (ms (median (durations r "shard_searcher.search"))) "ms";
  (* Candidate decomposition: match lists from the index, then every
     family's best-join on them (with dedup, as the searcher solves). *)
  let sizes = ref 0 and n_lists = ref 0 in
  Array.iteri
    (fun i (s : Answers.search) ->
      if i < decompose_lines then begin
        let c = Searcher.candidates searcher s.query in
        let step = max 1 (Array.length c / candidates_per_line) in
        Array.iteri
          (fun j doc_id ->
            if j mod step = 0 then begin
              let problem =
                span r "match_builder.from_index" (fun () ->
                    Pj_matching.Match_builder.from_index (Pj_ondisk.Mapped_index.index mapped)
                      ~doc_id s.query)
              in
              sizes := !sizes + Pj_core.Match_list.total_size problem;
              incr n_lists;
              List.iter
                (fun family ->
                  let scoring =
                    Answers.get "scoring"
                      (Protocol.scoring_of ~family ~alpha:s.request.Protocol.alpha)
                  in
                  ignore
                    (span r ("best_join.solve." ^ family) (fun () ->
                         Pj_core.Best_join.solve ~dedup:true scoring problem)))
                [ "win"; "med"; "max" ]
            end)
          c
      end)
    parsed;
  report r "match_builder.from_index_us" (us (median (durations r "match_builder.from_index"))) "us";
  report r "match_list.len_per_candidate"
    (float_of_int !sizes /. float_of_int (max 1 !n_lists))
    "count";
  List.iter
    (fun family ->
      report r ("best_join.solve_us." ^ family)
        (us (median (durations r ("best_join.solve." ^ family))))
        "us")
    [ "win"; "med"; "max" ];
  (searcher, search_s)

(* --- pj_server: the request path through the worker pool ----------------- *)

(* The server's request path in process: [Protocol] parse, a
   [Worker_pool] of the server's domain count, render. Replayed
   open-loop at the reference rate from two submitter threads, traced,
   for queue wait and self times; then closed-loop, each request once
   untraced and once traced, for the tracing overhead. *)
let request_path r ~searcher ~lines =
  let cfg = r.ctx.Workloads.cfg in
  let n = Array.length lines in
  (* The pool's search closure records when each job ran (keyed by the
     request id it carries in the query label), so the worker_pool.run
     span splits into queue wait and search. *)
  let ran = Array.make n (0., 0.) in
  let pool =
    Pj_server.Worker_pool.create ~domains:Config.domains ~queue_capacity:256
      (fun ~scoring ~k ~deadline query ->
        let t0 = now () in
        let res = Searcher.search_within ~k ~deadline searcher scoring query in
        ran.(int_of_string query.Pj_matching.Query.label) <- (t0, now ());
        Result.map (fun hits -> (hits, [])) res)
  in
  (* One request; [trace = None] runs it without spans. *)
  let one trace request =
    let root =
      Option.map (fun tr -> Trace.open_span tr ~parent:(-1) ~name:"request" ~request) trace
    in
    let within name f =
      match (trace, root) with
      | Some tr, Some parent -> Trace.with_span tr ~parent ~name ~request f
      | _ -> f ()
    in
    let s = within "protocol.parse" (fun () -> Answers.parse lines.(request)) in
    let query = { s.Answers.query with Pj_matching.Query.label = string_of_int request } in
    let t0 = now () in
    let outcome =
      Pj_server.Worker_pool.run pool ~scoring:s.Answers.scoring ~k:s.Answers.request.Protocol.k
        ~deadline:(far ()) query
    in
    let t1 = now () in
    (match (trace, root) with
    | Some tr, Some parent ->
        let id = Trace.add tr ~parent ~name:"worker_pool.run" ~request ~start:t0 ~stop:t1 in
        let s0, s1 = ran.(request) in
        ignore (Trace.add tr ~parent:id ~name:"searcher.search_within" ~request ~start:s0 ~stop:s1)
    | _ -> ());
    let hits =
      match outcome with
      | `Done (Pj_server.Worker_pool.Hits h) -> h
      | _ -> failwith "in-process worker pool refused or failed a search"
    in
    within "protocol.render" (fun () -> ignore (Answers.render hits));
    Option.iter (fun tr -> Option.iter (Trace.close_span tr) root) trace
  in
  let offsets =
    Schedule.poisson (Pj_util.Prng.split r.ctx.Workloads.rng) ~rate:cfg.Config.ref_rate ~count:n
  in
  let start = now () +. 0.01 in
  let submitter who =
    let i = ref who in
    while !i < n do
      let wait = start +. offsets.(!i) -. now () in
      if wait > 0. then Thread.delay wait;
      one (Some r.trace) !i;
      i := !i + 2
    done
  in
  let other = Thread.create submitter 1 in
  submitter 0;
  Thread.join other;
  let scratch = Trace.create () in
  let timed trace i =
    let t0 = now () in
    one trace i;
    now () -. t0
  in
  let pairs = Array.init n (fun i -> (timed None i, timed (Some scratch) i)) in
  Pj_server.Worker_pool.shutdown pool;
  let spans = Trace.spans r.trace in
  let self_of name =
    Trace.self_times spans
    |> Array.to_list
    |> List.filter_map (fun (s, self) -> if s.Trace.name = name then Some (ms self) else None)
    |> Array.of_list
  in
  let queue_wait = self_of "worker_pool.run" in
  let qw99 = Tail.of_samples queue_wait 99. in
  Printf.printf "worker_pool.queue_wait_ms %s\n" (Tail.describe qw99);
  report r "protocol.parse_us" (us (median (durations r "protocol.parse"))) "us";
  report r "protocol.render_us" (us (median (durations r "protocol.render"))) "us";
  report r "worker_pool.queue_wait_ms.p50" (median queue_wait) "ms";
  report r "worker_pool.queue_wait_ms.p99" qw99.Tail.value "ms";
  List.iter
    (fun name -> report r ("self_ms." ^ name) (Stats.mean (self_of name)) "ms")
    [ "request"; "protocol.parse"; "worker_pool.run"; "searcher.search_within"; "protocol.render" ];
  report r "trace.span_coverage" (Trace.coverage spans ~root:"request") "1";
  let u = median (Array.map fst pairs) and t = median (Array.map snd pairs) in
  report r "trace.overhead_ms" (ms (t -. u)) "ms";
  report r "trace.overhead_pct" (100. *. (t -. u) /. u) "%"

(* --- pj_live ---------------------------------------------------------- *)

let live_layers r ~docs ~lines =
  let dir = Workloads.path r.ctx "trace-live" in
  let config =
    {
      Live.default_config with
      Live.memtable_capacity = Config.memtable;
      wal = true;
      fsync_policy = Pj_live.Wal.Per_batch;
    }
  in
  let live = Live.open_dir ~config dir in
  let parsed = Array.map Answers.parse lines in
  let stems = Array.map Gen.stemmed docs in
  let chunk = 8 in
  let n_chunks = Array.length stems / chunk in
  for c = 0 to n_chunks - 1 do
    let batch = Array.to_list (Array.sub stems (c * chunk) chunk) in
    ignore (span r "live_index.add_batch" (fun () -> Live.add_batch live batch));
    (if c mod 2 = 1 then
       let s = parsed.(c mod Array.length parsed) in
       ignore
         (span r "live_index.search_within" (fun () ->
              Live.search_within ~k:s.Answers.request.Protocol.k ~deadline:(far ()) live
                s.Answers.scoring s.Answers.query)));
    if c mod 25 = 24 then ignore (span r "live_index.flush" (fun () -> Live.flush live))
  done;
  let st = Live.stats live in
  report r "live_index.add_batch_ms" (ms (median (durations r "live_index.add_batch"))) "ms";
  report r "live_index.flush_ms" (ms (median (durations r "live_index.flush"))) "ms";
  report r "live_index.search_ms" (ms (median (durations r "live_index.search_within"))) "ms";
  report r "live_index.merges" (float_of_int st.Live.merges) "count";
  report r "live_index.segments" (float_of_int st.Live.segments) "count";
  report r "wal.fsyncs_per_doc"
    (float_of_int st.Live.wal_fsyncs /. float_of_int (n_chunks * chunk))
    "1";
  (* Leave unflushed documents in the WAL so reopening replays it. *)
  ignore (Live.add_batch live [ stems.(0) ]);
  Live.close live;
  let reopened = span r "live_index.open" (fun () -> Live.open_dir ~config dir) in
  Live.close reopened;
  report r "live_index.open_s" (median (durations r "live_index.open")) "s";
  (* Group commit: two threads submitting ADDDOCs concurrently through
     the batcher, as two connections would. *)
  let live = Live.create ~config:{ config with Live.wal = false } () in
  let pool =
    Pj_server.Worker_pool.create ~domains:Config.live_domains ~queue_capacity:256
      (Pj_server.Worker_pool.of_live live)
  in
  let batches = Atomic.make 0 in
  let batcher =
    Pj_server.Ingest_batcher.create ~on_batch:(fun ~size:_ -> Atomic.incr batches) pool live
  in
  let submit who =
    Array.iteri (fun i s -> if i mod 2 = who then ignore (Pj_server.Ingest_batcher.submit batcher s)) stems
  in
  let other = Thread.create submit 1 in
  submit 0;
  Thread.join other;
  Pj_server.Worker_pool.shutdown pool;
  Live.close live;
  report r "ingest_batcher.batch_size"
    (float_of_int (Array.length stems) /. float_of_int (max 1 (Atomic.get batches)))
    "docs"

(* --- pj_cluster ------------------------------------------------------- *)

(* Two backends over the halves of the workload's documents, with a
   one-entry result cache each, and an in-process router over them.
   Each line goes to both legs directly and, one line later, through
   the router — so neither path is answered from a backend's cache. *)
let cluster_layers r ~docs ~lines ~reference =
  let ctx = r.ctx in
  let slices =
    List.mapi
      (fun i d ->
        let src = Workloads.path ctx (Printf.sprintf "trace-slice%d.txt" i) in
        Gen.write_docs src d;
        let dst = Workloads.path ctx (Printf.sprintf "trace-slice%d.pjx4" i) in
        Workloads.compact ctx ~src ~dst;
        dst)
      (Workloads.halves docs)
  in
  let backends =
    List.map
      (fun idx ->
        Procs.start ~bin:ctx.Workloads.cfg.Config.proxjoin
          ~args:[ "serve"; "--index"; idx; "--domains"; "1"; "--cache"; "1"; "--port"; "0" ]
          ~log:(idx ^ ".serve.log") ~name:"trace backend")
      slices
  in
  let specs = List.map (fun b -> { Pj_cluster.Router.host = "127.0.0.1"; port = b.Procs.port; base = None }) backends in
  let router =
    match Pj_cluster.Router.create ~legs:(List.map (fun s -> (s, [])) specs) () with
    | Ok x -> x
    | Error msg -> failwith ("router: " ^ msg)
  in
  let legs = List.map (fun b -> Pj_cluster.Backend.create ~host:"127.0.0.1" ~port:b.Procs.port) backends in
  let n = Array.length lines in
  let leg_s = Array.make_matrix 2 n 0. and router_s = Array.make n 0. in
  let route j =
    let s = Answers.parse lines.(j) in
    let t0 = now () in
    let o = Pj_cluster.Router.search router s.Answers.request ~deadline:(far ()) in
    router_s.(j) <- now () -. t0;
    match o with
    | Pj_server.Server.Forwarded_hits hits ->
        check r ~what:("routed = mono: " ^ lines.(j))
          (Protocol.string_of_id_scores ~precision:Protocol.exact_precision hits)
          (reference s)
    | _ -> check r ~what:("routed answer: " ^ lines.(j)) "not complete hits" (reference s)
  in
  for j = 0 to n - 1 do
    List.iteri
      (fun leg b ->
        let t0 = now () in
        (match Pj_cluster.Backend.request b ~line:lines.(j) ~deadline:(far ()) with
        | Pj_cluster.Backend.Line l when Answers.is_hits l -> ()
        | _ -> failwith "backend leg did not answer HITS");
        leg_s.(leg).(j) <- now () -. t0)
      legs;
    if j > 0 then route (j - 1)
  done;
  route (n - 1);
  List.iteri
    (fun leg a ->
      let t = Tail.of_samples (Array.map ms a) 99. in
      Printf.printf "backend.leg%d.request_ms %s\n" leg (Tail.describe t);
      report r (Printf.sprintf "backend.leg%d.request_ms.p50" leg) (ms (median a)) "ms";
      report r (Printf.sprintf "backend.leg%d.request_ms.p99" leg) t.Tail.value "ms")
    (Array.to_list leg_s);
  report r "router.search_ms" (ms (median router_s)) "ms";
  report r "router.merge_overhead_ms"
    (ms (median (Array.init n (fun j -> router_s.(j) -. Float.max leg_s.(0).(j) leg_s.(1).(j)))))
    "ms";
  report r "router.backend_retries" (float_of_int (Pj_cluster.Router.backend_retries router)) "count";
  report r "router.failovers" (float_of_int (Pj_cluster.Router.failovers router)) "count";
  Pj_cluster.Router.close router;
  List.iter Pj_cluster.Backend.close legs;
  List.iter Procs.stop backends

(* --- the workload's own stack: what only the socket shows ------------- *)

let server_layers r ~stack ~lines ~in_process ~reference ~stream_lines ~adds =
  let port = stack.Workloads.front.Procs.port in
  let client = Client.connect port in
  (* Writes first (ingest_mixed), so the server holds the same documents
     as the in-process index the overhead is measured against. *)
  if Array.length adds > 0 then begin
    ignore (Client.burst client (Array.map (fun d -> "ADDDOC " ^ d) adds) ~drain_s:60.);
    ignore (Procs.text_request port "FLUSH")
  end;
  let overhead =
    Array.mapi
      (fun i line ->
        let rtt, resp = Client.round_trip client line in
        (match reference with
        | Some expected -> check r ~what:("socket = in-process: " ^ line) resp (expected line)
        | None -> ());
        rtt -. in_process.(i))
      lines
  in
  report r "server.roundtrip_overhead_ms" (ms (median overhead)) "ms";
  let before = Procs.stats port in
  ignore (Client.burst client stream_lines ~drain_s:60.);
  let after = Procs.stats port in
  Client.close client;
  let delta k = Procs.stat_float after k -. Procs.stat_float before k in
  let hits = delta "cache_hits" and misses = delta "cache_misses" in
  report r "result_cache.hit_ratio" (hits /. Float.max 1. (hits +. misses)) "1"

(* ----------------------------------------------------------------------- *)

let run (ctx : Workloads.ctx) =
  let cfg = ctx.Workloads.cfg in
  let r = { ctx; trace = Trace.create (); out = []; checked = 0; mismatches = 0 } in
  let docs, pool, stream, adds, seed_docs =
    if cfg.Config.workload = "ingest_mixed" then begin
      let i = Workloads.ingest_inputs ctx in
      ( Array.append i.Workloads.seed_docs i.Workloads.adds,
        i.Workloads.ipool,
        i.Workloads.istream,
        i.Workloads.adds,
        i.Workloads.seed_docs )
    end
    else begin
      let i = Workloads.query_inputs ctx ~stream_len:replay_requests in
      (i.Workloads.docs, i.Workloads.pool, i.Workloads.stream, [||], [||])
    end
  in
  let lines = Array.sub pool 0 (min engine_lines (Array.length pool)) in
  let stream_lines = Array.map (fun i -> pool.(i)) stream in
  let heap, mapped = index_layers r ~docs ~file:(Workloads.path ctx "trace.pjx4") in
  let searcher, search_s = engine_layers r ~heap ~mapped ~lines in
  let reference s = Answers.expected searcher s in
  request_path r ~searcher
    ~lines:(Array.init replay_requests (fun i -> stream_lines.(i mod Array.length stream_lines)));
  live_layers r
    ~docs:(if Array.length adds > 0 then Array.sub adds 0 (min live_docs (Array.length adds))
           else Array.sub docs 0 (min live_docs (Array.length docs)))
    ~lines;
  let cl = Array.sub lines 0 (min cluster_lines (Array.length lines)) in
  cluster_layers r ~docs ~lines:cl ~reference;
  (* The workload's own serving stack, set up as the untraced run does. *)
  let stack =
    match cfg.Config.workload with
    | "ingest_mixed" ->
        let seed_file = Workloads.path ctx "seed.txt" in
        Gen.write_docs seed_file seed_docs;
        Workloads.start_live ctx ~seed_file ~live_dir:(Workloads.path ctx "live")
    | "query_routed" ->
        let slices =
          List.mapi
            (fun i _ -> Workloads.path ctx (Printf.sprintf "trace-slice%d.pjx4" i))
            (Workloads.halves docs)
        in
        Workloads.start_routed ctx ~slices
    | _ -> Workloads.start_mono ctx ~idx:(Workloads.path ctx "trace.pjx4")
  in
  let rtt_lines = Array.sub lines 0 (min rtt_lines (Array.length lines)) in
  server_layers r ~stack ~lines:rtt_lines ~in_process:search_s
    ~reference:(if Array.length adds > 0 then None
                else Some (fun l -> reference (Answers.parse l)))
    ~stream_lines ~adds;
  Workloads.stop_stack stack;
  (try Unix.mkdir ".perfbench_traces" 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
  let out = Printf.sprintf ".perfbench_traces/%s-%d.tsv" cfg.Config.workload cfg.Config.seed in
  Trace.write r.trace out;
  Printf.printf "spans: %d written to %s\n" (Array.length (Trace.spans r.trace)) out;
  { metrics = List.rev r.out; attempted = max 1 r.checked; mismatches = r.mismatches }
