(* bench-cluster: what the serving tier does under open-loop heavy
   traffic. Closed-loop load generators (send, wait, send) hide queueing
   collapse: a slow server slows the *generator* down, so measured
   latency stays flat while real clients would be stacking up. Here the
   arrival rate is fixed in advance — every request has a scheduled due
   time, latency is measured from the due time (not the send time, which
   dodges coordinated omission: a sender that falls behind still charges
   the delay to the requests that suffered it), and the same schedule is
   replayed against three topologies:

   - mono:     one server over the full corpus,
   - routed:   a scatter-gather router over 2 shard backends,
   - degraded: the same router with one backend killed (every answer is
               the survivors' exact top-k, via the failover path).

   All requests ride the binary pipelined protocol over hundreds of
   concurrent connections; one sender thread walks the global schedule
   while a receiver thread per connection matches responses by request
   id. The arrival rate is set to half the measured closed-loop capacity
   so the healthy arms run below saturation and the degraded arm shows
   the failover tax, not queueing collapse. Results land in
   BENCH_cluster.json with p50/p99/p999 and outcome counts per arm. *)

module Frame = Pj_frame.Frame
module Wire = Pj_frame.Wire
module Server = Pj_server.Server
module Router = Pj_cluster.Router

(* --- query set --------------------------------------------------------- *)

(* 61 distinct SEARCH lines cycling through families, ks and marker
   pairs. 61 is prime — and in particular coprime to the connection
   counts — so successive requests on one connection carry different
   lines: with cache_capacity = 1 on every server, every request is a
   real search. (With [lines = conns] each connection repeats a single
   line forever, and a pipelined burst of same-key requests turns the
   healthy arms into a cache benchmark while degraded answers — never
   cached — pay full price: the arms stop being comparable.) *)
let query_lines rng =
  Array.init 61 (fun i ->
      let family = [| "win"; "med"; "max" |].(i mod 3) in
      let alpha = [| 0.1; 0.2; 0.3 |].(i mod 3) in
      let k = 5 + (i mod 6) in
      let a = Pj_util.Prng.int rng (Array.length Runs.markers) in
      let b =
        (a + 1 + Pj_util.Prng.int rng (Array.length Runs.markers - 1))
        mod Array.length Runs.markers
      in
      Printf.sprintf "SEARCH %s %g %d exact:%s exact:%s" family alpha k
        Runs.markers.(a) Runs.markers.(b))

let build_searcher docs =
  let corpus = Pj_index.Corpus.create () in
  Array.iter (fun d -> ignore (Pj_index.Corpus.add_tokens corpus d)) docs;
  Pj_engine.Searcher.create (Pj_index.Inverted_index.build corpus)

let server_config =
  {
    Server.default_config with
    Server.domains = 1;
    queue_capacity = 256;
    cache_capacity = 1;
    deadline_s = 5.;
    (* A deep in-flight cap just multiplies threads on a small box;
       backpressure at 4 keeps the thread count proportional to
       connections, not to backlog. *)
    binary_inflight = 4;
  }

let start_backend docs =
  Server.start ~config:server_config
    ~stats:(Server.static_docs (Array.length docs))
    ~graph:(Pj_ontology.Mini_wordnet.create ())
    (Pj_server.Worker_pool.of_searcher (build_searcher docs))

(* --- binary client ----------------------------------------------------- *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

let is_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Outcome codes stored per request id. *)
let o_unanswered = -1
let o_hits = 0
let o_degraded = 1
let o_busy = 2
let o_timeout = 3
let o_err = 4

let classify payload =
  if is_prefix "HITS " payload then o_hits
  else if is_prefix "OK-DEGRADED " payload then o_degraded
  else if payload = "BUSY" then o_busy
  else if payload = "TIMEOUT" then o_timeout
  else o_err

(* --- one open-loop arm ------------------------------------------------- *)

type arm = {
  arm_rate : float;  (* offered qps *)
  arm_conns : int;
  arm_total : int;
  arm_counts : int array;  (* hits; degraded; busy; timeout; err/unanswered *)
  arm_p50 : float;  (* ms, over answered requests *)
  arm_p99 : float;
  arm_p999 : float;
}

let run_arm ~port ~conns ~rate ~duration lines =
  let total = max conns (int_of_float (rate *. duration)) in
  let due = Array.make total 0. in
  let lat = Array.make total nan in
  let outcome = Array.make total o_unanswered in
  let fds = Array.init conns (fun _ -> connect port) in
  let per_conn = Array.make conns 0 in
  for i = 0 to total - 1 do
    per_conn.(i mod conns) <- per_conn.(i mod conns) + 1
  done;
  (* The whole schedule exists before the first send, so a receiver can
     never observe an unwritten due time. *)
  let t0 = Pj_util.Timing.monotonic_now () +. 0.1 in
  for i = 0 to total - 1 do
    due.(i) <- t0 +. (float_of_int i /. rate)
  done;
  let receiver j =
    let c = fds.(j) in
    let remaining = ref per_conn.(j) in
    try
      while !remaining > 0 do
        match Wire.read c.ic with
        | Wire.Frame f ->
            let id = f.Frame.id in
            if id >= 0 && id < total then begin
              lat.(id) <- Pj_util.Timing.monotonic_now () -. due.(id);
              outcome.(id) <- classify f.Frame.payload
            end;
            decr remaining
        | Wire.Closed | Wire.Bad _ -> raise Exit
      done
    with Exit | Sys_error _ -> ()
    (* A dropped connection leaves its remaining ids unanswered; they
       are counted as errors below rather than silently excluded. *)
  in
  let receivers = Array.init conns (fun j -> Thread.create receiver j) in
  (try
     for i = 0 to total - 1 do
       let now = Pj_util.Timing.monotonic_now () in
       if due.(i) > now then Unix.sleepf (due.(i) -. now);
       let c = fds.(i mod conns) in
       Wire.write_flush c.oc
         {
           Frame.kind = Frame.Request;
           id = i;
           payload = lines.(i mod Array.length lines);
         }
     done
   with Sys_error _ | Unix.Unix_error _ -> ());
  Array.iter Thread.join receivers;
  Array.iter close fds;
  let counts = Array.make 5 0 in
  let answered = ref [] in
  Array.iteri
    (fun i o ->
      if o = o_unanswered then counts.(o_err) <- counts.(o_err) + 1
      else begin
        counts.(o) <- counts.(o) + 1;
        answered := lat.(i) :: !answered
      end)
    outcome;
  let lats = Array.of_list !answered in
  let pct p = if Array.length lats = 0 then 0. else Runs.percentile_ms lats p in
  {
    arm_rate = rate;
    arm_conns = conns;
    arm_total = total;
    arm_counts = counts;
    arm_p50 = pct 50.;
    arm_p99 = pct 99.;
    arm_p999 = pct 99.9;
  }

(* Closed-loop capacity probe with the *same* connection structure as
   the measured arms: [conns] connections each ping-ponging
   sequentially. A single-connection probe would measure raw search
   throughput and miss what hundreds of connection/reader/worker
   threads cost on a small box — an offered rate derived from it
   saturates the open-loop arms into queueing collapse instead of
   measuring them. *)
let closed_loop_rate ~port ~conns ~seconds lines =
  let completed = Atomic.make 0 in
  let t0 = Pj_util.Timing.monotonic_now () in
  let stop = t0 +. seconds in
  let client j =
    let c = connect port in
    Fun.protect
      ~finally:(fun () -> close c)
      (fun () ->
        let n = ref j in
        try
          while Pj_util.Timing.monotonic_now () < stop do
            Wire.write_flush c.oc
              {
                Frame.kind = Frame.Request;
                id = !n;
                payload = lines.(!n mod Array.length lines);
              };
            (match Wire.read c.ic with
            | Wire.Frame _ -> Atomic.incr completed
            | Wire.Closed | Wire.Bad _ -> raise Exit);
            n := !n + conns
          done
        with Exit | Sys_error _ -> ())
  in
  let threads = Array.init conns (fun j -> Thread.create client j) in
  Array.iter Thread.join threads;
  float_of_int (Atomic.get completed)
  /. (Pj_util.Timing.monotonic_now () -. t0)

(* --- the bench --------------------------------------------------------- *)

let row name a =
  Runs.print_row name
    [
      Printf.sprintf "%.0f" a.arm_rate;
      string_of_int a.arm_conns;
      string_of_int a.arm_total;
      Printf.sprintf "%.2f ms" a.arm_p50;
      Printf.sprintf "%.2f ms" a.arm_p99;
      Printf.sprintf "%.2f ms" a.arm_p999;
      Printf.sprintf "%d/%d/%d/%d/%d" a.arm_counts.(o_hits)
        a.arm_counts.(o_degraded) a.arm_counts.(o_busy)
        a.arm_counts.(o_timeout) a.arm_counts.(o_err);
    ]

let json_of_arm a =
  Runs.Obj
    [
      ("offered_qps", Runs.Num (1, a.arm_rate));
      ("connections", Runs.Int a.arm_conns);
      ("requests", Runs.Int a.arm_total);
      ("hits", Runs.Int a.arm_counts.(o_hits));
      ("degraded", Runs.Int a.arm_counts.(o_degraded));
      ("busy", Runs.Int a.arm_counts.(o_busy));
      ("timeout", Runs.Int a.arm_counts.(o_timeout));
      ("errors", Runs.Int a.arm_counts.(o_err));
      ("p50_ms", Runs.Num (4, a.arm_p50));
      ("p99_ms", Runs.Num (4, a.arm_p99));
      ("p999_ms", Runs.Num (4, a.arm_p999));
    ]

let spec_of server =
  { Router.host = "127.0.0.1"; port = Server.port server; base = None }

let never_searches ~scoring:_ ~k:_ ~deadline:_ _query = Ok ([], [])

let run ~quick =
  let n_docs = if quick then 1_000 else 4_000 in
  let conns = if quick then 64 else 500 in
  let duration = if quick then 2.0 else 10.0 in
  let probe_s = if quick then 0.5 else 2.0 in
  let rng = Pj_util.Prng.create 1729 in
  let docs = Array.init n_docs (fun _ -> Runs.marker_doc rng) in
  let lines = query_lines rng in
  let half = n_docs / 2 in
  let docs_a = Array.sub docs 0 half in
  let docs_b = Array.sub docs half (n_docs - half) in
  (* mono over the whole corpus, two shard backends over the halves. *)
  let mono = start_backend docs in
  let back_a = start_backend docs_a in
  let back_b = start_backend docs_b in
  let router =
    match
      Router.create ~legs:[ (spec_of back_a, []); (spec_of back_b, []) ] ()
    with
    | Ok r -> r
    | Error e -> failwith ("bench-cluster: " ^ e)
  in
  let front =
    Server.start ~config:server_config ~forward:(Router.forward router)
      ~stats:(Router.register_stats router)
      ~graph:(Pj_ontology.Mini_wordnet.create ())
      never_searches
  in
  Fun.protect
    ~finally:(fun () ->
      Server.stop front;
      Router.close router;
      Server.stop back_a;
      Server.stop back_b;
      Server.stop mono)
    (fun () ->
      (* Capacity probe against the *routed* front — the weakest
         healthy topology — fixes one offered rate for every arm: the
         comparison is at equal load, and no arm is pushed past its
         own saturation point. (Anchoring to mono would offer the
         routed arms more than the front's per-connection in-flight
         window can clear, measuring queueing collapse instead of the
         routing tax.) *)
      let closed =
        closed_loop_rate ~port:(Server.port front) ~conns ~seconds:probe_s
          lines
      in
      let rate = Float.max 50. (0.5 *. closed) in
      Runs.print_header
        (Printf.sprintf
           "bench-cluster: open-loop, %d docs, routed closed-loop capacity \
            %.0f qps"
           n_docs closed)
        [ "qps"; "conns"; "reqs"; "p50"; "p99"; "p999"; "h/d/b/t/e" ];
      let mono_arm =
        run_arm ~port:(Server.port mono) ~conns ~rate ~duration lines
      in
      row "mono" mono_arm;
      let routed_arm =
        run_arm ~port:(Server.port front) ~conns ~rate ~duration lines
      in
      row "routed 2-shard" routed_arm;
      (* Kill one backend: every answer must degrade to the survivors'
         exact top-k, through the (futile, replica-less) retry path.
         Once the router has seen the leg drop, the front's cache epoch
         has moved on, so no HITS cached by the healthy arm is
         replayed. *)
      let epoch = Pj_server.Result_cache.generation (Server.cache front) in
      Server.kill back_b;
      let give_up = Unix.gettimeofday () +. 5. in
      while
        Pj_server.Result_cache.generation (Server.cache front) = epoch
        && Unix.gettimeofday () < give_up
      do
        Thread.delay 0.01
      done;
      let degraded_arm =
        run_arm ~port:(Server.port front) ~conns ~rate ~duration lines
      in
      row "routed, 1 dead" degraded_arm;
      (* Topology-deterministic invariants (independent of load): a
         monolithic searcher can never degrade, and a router with a
         dead, replica-less leg can never produce a complete HITS. *)
      assert (mono_arm.arm_counts.(o_degraded) = 0);
      assert (degraded_arm.arm_counts.(o_hits) = 0);
      assert (degraded_arm.arm_counts.(o_degraded) > 0);
      let shed a =
        a.arm_counts.(o_busy) + a.arm_counts.(o_timeout) + a.arm_counts.(o_err)
      in
      if shed mono_arm * 100 > mono_arm.arm_total then
        Printf.printf
          "[bench-cluster] warning: mono shed %d/%d at half capacity\n"
          (shed mono_arm) mono_arm.arm_total;
      if shed routed_arm * 100 > routed_arm.arm_total then
        Printf.printf
          "[bench-cluster] warning: routed shed %d/%d at half capacity\n"
          (shed routed_arm) routed_arm.arm_total;
      Runs.write_json "cluster"
        (Runs.Obj
           [
             ("docs", Runs.Int n_docs);
             ("connections", Runs.Int conns);
             ("duration_s", Runs.Num (1, duration));
             ("closed_loop_qps", Runs.Num (1, closed));
             ("offered_qps", Runs.Num (1, rate));
             ("mono", json_of_arm mono_arm);
             ("routed", json_of_arm routed_arm);
             ("degraded", json_of_arm degraded_arm);
           ]))
