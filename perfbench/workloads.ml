(* The three workloads, untraced: set up the real server processes,
   drive them open-loop through the socket, check every answer, and
   report the end-to-end metrics. *)

module Config = Perfbench_kit.Config
module Tail = Perfbench_kit.Tail
module Schedule = Perfbench_kit.Schedule
module Stats = Pj_util.Stats

let now = Pj_util.Timing.monotonic_now

type ctx = { cfg : Config.t; dir : string; rng : Pj_util.Prng.t }

let path ctx name = Filename.concat ctx.dir name
let median l = Stats.median (Array.of_list l)

(* --- inputs ------------------------------------------------------------ *)

type inputs = {
  docs : string array;
  pool : string array;  (** distinct SEARCH lines *)
  stream : int array;  (** pool indexes, in request order *)
}

(* The query_* inputs; query_mono and query_routed make identical ones
   from one seed. *)
let query_inputs ctx ~stream_len =
  let rng = Pj_util.Prng.split ctx.rng in
  let docs = Array.init Config.docs (fun _ -> Gen.doc rng) in
  let pool = Gen.pool rng Config.pool in
  let stream = Gen.stream rng ~s:0.6 ~pool_size:(Array.length pool) ~count:stream_len in
  { docs; pool; stream }

(* Contiguous halves, as the router's legs partition the corpus. *)
let halves docs =
  let h = Array.length docs / 2 in
  [ Array.sub docs 0 h; Array.sub docs h (Array.length docs - h) ]

(* --- server stacks ----------------------------------------------------- *)

let cache_entries = 1024

(* Flags every serving process gets, beside its domain count: fixed
   here, printed in the run header. The deadline is far above any
   latency limit so overload shows as latency, not as TIMEOUT. *)
let server_flags = [ "--cache"; string_of_int cache_entries; "--queue"; "256"; "--deadline-ms"; "10000"; "--port"; "0" ]
let router_flags = [ "--cache"; string_of_int cache_entries; "--deadline-ms"; "10000"; "--port"; "0" ]

type stack = { procs : Procs.t list; front : Procs.t }

let stop_stack s = List.iter Procs.stop s.procs

let compact ctx ~src ~dst =
  Procs.run ~bin:ctx.cfg.Config.proxjoin ~args:[ "compact"; src; dst ]
    ~log:(dst ^ ".log")

let start_mono ctx ~idx =
  let p =
    Procs.start ~bin:ctx.cfg.Config.proxjoin
      ~args:
        ([ "serve"; "--index"; idx; "--domains"; string_of_int Config.domains ]
        @ server_flags)
      ~log:(idx ^ ".serve.log") ~name:"serve --index"
  in
  { procs = [ p ]; front = p }

let start_routed ctx ~slices =
  let pending =
    List.map
      (fun idx ->
        Procs.launch ~bin:ctx.cfg.Config.proxjoin
          ~args:
            ([ "serve"; "--index"; idx; "--domains";
               string_of_int Config.backend_domains ]
            @ server_flags)
          ~log:(idx ^ ".serve.log") ~name:"backend")
      slices
  in
  let backends = List.map Procs.ready pending in
  let router =
    Procs.start ~bin:ctx.cfg.Config.proxjoin
      ~args:
        ([ "serve-router" ]
        @ List.concat_map
            (fun b -> [ "--backend"; Printf.sprintf "127.0.0.1:%d" b.Procs.port ])
            backends
        @ router_flags)
      ~log:(List.hd slices ^ ".router.log") ~name:"serve-router"
  in
  { procs = router :: backends; front = router }

let start_live ctx ~seed_file ~live_dir =
  let p =
    Procs.start ~bin:ctx.cfg.Config.proxjoin
      ~args:
        ([ "serve"; seed_file; "--live-dir"; live_dir; "--wal"; "--fsync-policy";
           "per-batch"; "--memtable"; string_of_int Config.memtable; "--domains";
           string_of_int Config.live_domains ]
        @ server_flags)
      ~log:(live_dir ^ ".serve.log") ~name:"serve --live"
  in
  { procs = [ p ]; front = p }

(* [Config.setup_reps_of] full set-ups, each from nothing (fresh output
   files); all but the last stack are stopped. Returns the last set-up's
   result and the median set-up time. *)
let repeated_setup ctx f =
  let times = ref [] and last = ref None in
  for rep = 1 to Config.setup_reps_of ctx.cfg.Config.workload do
    Option.iter (fun (s, _) -> stop_stack s) !last;
    let t0 = now () in
    let r = f rep in
    times := (now () -. t0) :: !times;
    last := Some r
  done;
  (Option.get !last, median !times)

(* kill -9 every serving process, restart, and time until the front
   answers PING again; the median of [Config.setup_reps] crashes. *)
let repeated_recovery stack restart =
  let stack = ref stack and times = ref [] in
  for _ = 1 to Config.setup_reps do
    let t0 = now () in
    stop_stack !stack;
    stack := restart ();
    times := (now () -. t0) :: !times
  done;
  (!stack, median !times)

let rss_mb stack = List.fold_left (fun acc p -> acc +. Procs.peak_rss_mb p) 0. stack.procs

(* CPU time the serving processes spend per request while [f] sends
   [requests] of them, in ms. Time spent waiting to be scheduled is not
   CPU time, so on a shared host this moves less than latency does. *)
let cpu_ms_per_request stack ~requests f =
  let cpu () = List.fold_left (fun acc p -> acc +. Procs.cpu_s p) 0. stack.procs in
  let c0 = cpu () in
  let r = f () in
  (r, (cpu () -. c0) *. 1000. /. float_of_int (max 1 requests))

(* --- one open-loop phase ----------------------------------------------- *)

type phase = {
  rate : float;  (** offered, req/s *)
  result : Client.result;
  ok : bool array;  (** answered with the expected kind of line *)
}

let run_phase client ~rng ~rate ~lines ~ok_line =
  let offsets = Schedule.poisson rng ~rate ~count:(Array.length lines) in
  let start = now () +. 0.02 in
  let due = Array.map (fun o -> start +. o) offsets in
  let result = Client.open_loop !client ~lines ~due ~drain_s:45. in
  if Array.exists (fun r -> r = "") result.Client.response then begin
    (* Unanswered requests left the connection shut down. *)
    Client.close !client;
    client := Client.connect (Client.port !client)
  end;
  let ok = Array.map ok_line result.Client.response in
  (match Array.find_index not ok with
  | Some i ->
      Printf.printf "first failure at %g/s: %s -> %S\n" rate lines.(i)
        result.Client.response.(i)
  | None -> ());
  { rate; result; ok }

(* Latency samples of the requests selected by [sel]; a failed request
   counts as infinitely late (it misses any limit). *)
let latencies_ms p sel =
  let out = ref [] in
  Array.iteri
    (fun i l -> if sel i then out := (if p.ok.(i) then l *. 1000. else Float.infinity) :: !out)
    p.result.Client.latency;
  Array.of_list (List.rev !out)

type rung_summary = {
  r_rate : float;
  n : int;
  failed : int;
  p50 : Tail.t;
  p99 : Tail.t;
  block_p50 : Tail.t;  (** median over blocks ({!Tail.block_median}): the reported figures *)
  block_p99 : Tail.t;
  lag_p50_ms : float;
  lag_p99_ms : float;
  lag_max_ms : float;
  growth : float;
  grows : bool;
  achieved_qps : float;
  saturated_qps : float;  (** completions/s while backlogged; meaningful past capacity *)
  meets_slo : bool;
  generator_ok : bool;
}

let summarize ctx p sel =
  let lat = latencies_ms p sel in
  let n = Array.length lat in
  let idx = List.filter sel (List.init (Array.length p.ok) Fun.id) in
  let pick a = Array.of_list (List.map (fun i -> a.(i)) idx) in
  let lag = Array.map (fun x -> x *. 1000.) (pick p.result.Client.lag) in
  let failed = Array.fold_left (fun acc l -> if Float.is_finite l then acc else acc + 1) 0 lat in
  let limit_s = Config.slo_ms ctx.cfg /. 1000. in
  let growth = Schedule.backlog_growth p.result.Client.outstanding in
  let grows = Schedule.backlog_grows ~rate:p.rate ~limit_s p.result.Client.outstanding in
  let due = pick p.result.Client.due and l = pick p.result.Client.latency in
  let last_done = ref Float.neg_infinity in
  Array.iteri (fun i d -> if Float.is_finite l.(i) then last_done := Float.max !last_done (d +. l.(i))) due;
  let span = !last_done -. (if n > 0 then due.(0) else 0.) in
  let p99 = Tail.of_samples lat 99. in
  let lag_p99_ms = if n > 0 then Stats.percentile lag 99. else 0. in
  {
    r_rate = p.rate;
    n;
    failed;
    p50 = Tail.of_samples lat 50.;
    p99;
    block_p50 = Tail.block_median lat 50.;
    block_p99 = Tail.block_median lat 99.;
    lag_p50_ms = (if n > 0 then Stats.percentile lag 50. else 0.);
    lag_p99_ms;
    lag_max_ms = (if n > 0 then snd (Stats.min_max lag) else 0.);
    growth;
    grows;
    achieved_qps = (if span > 0. then float_of_int (n - failed) /. span else 0.);
    saturated_qps =
      (* [lat] is infinite for a failed request: only answers count. *)
      Schedule.backlogged_throughput
        (Array.of_list
           (List.filter_map
              (fun i -> if Float.is_finite lat.(i) then Some (due.(i) +. (lat.(i) /. 1000.)) else None)
              (List.init n Fun.id)));
    meets_slo = Tail.valid p99 && p99.Tail.value <= Config.slo_ms ctx.cfg && not grows;
    (* The generator kept its schedule when 99% of sends left within a
       tenth of the latency limit of their due time. *)
    generator_ok = lag_p99_ms <= Config.slo_ms ctx.cfg /. 10.;
  }

let print_rung label s =
  Printf.printf
    "rung %-8s rate=%g/s n=%d failed=%d %s %s block median %s %s achieved=%.1f/s \
     backlogged=%.1f/s lag_p50=%.3fms lag_p99=%.3fms lag_max=%.3fms backlog_growth=%.1f%s meets_slo=%b \
     generator_ok=%b\n"
    label s.r_rate s.n s.failed (Tail.describe s.p50) (Tail.describe s.p99)
    (Tail.describe s.block_p50) (Tail.describe s.block_p99)
    s.achieved_qps s.saturated_qps s.lag_p50_ms s.lag_p99_ms s.lag_max_ms s.growth
    (if s.grows then " (GROWING)" else "")
    s.meets_slo s.generator_ok

(* --- results ----------------------------------------------------------- *)

type outcome = {
  metrics : (string * float * string) list;  (** reported in the JSON line *)
  extra : (string * float * string) list;  (** printed only *)
  attempted : int;
  failed : int;
  mismatches : int;
  valid : bool;  (** the generator kept its schedule *)
}

(* Compare socket answers with reference answers; every line's answers
   must also agree with each other. Returns the mismatch count. *)
let check_answers ~responses ~reference =
  let seen = Hashtbl.create 1024 and bad = ref 0 in
  List.iter
    (fun (line, r) ->
      if Answers.is_hits r then
        match Hashtbl.find_opt seen line with
        | Some r0 when r0 <> r ->
            incr bad;
            if !bad <= 3 then
              Printf.printf "MISMATCH %s answered two ways\n  first %s\n  later %s\n" line r0 r
        | Some _ -> ()
        | None -> Hashtbl.add seen line r)
    responses;
  Hashtbl.iter
    (fun line r ->
      match reference line with
      | Some expected when expected <> r ->
          incr bad;
          if !bad <= 3 then
            Printf.printf "MISMATCH %s\n  got      %s\n  expected %s\n" line r expected
      | _ -> ())
    seen;
  !bad

(* --- known defects ------------------------------------------------------ *)

let check_sample = 300

(* The two defects the generator steers around (README.md, "Known
   defects"), probed on a throwaway server over [idx]. Returns the
   number of probes that failed. *)
let defect_probes ctx ~idx ~searcher ~pool =
  let p =
    Procs.start ~bin:ctx.cfg.Config.proxjoin
      ~args:[ "serve"; "--index"; idx; "--domains"; "1"; "--deadline-ms"; "200"; "--port"; "0" ]
      ~log:(idx ^ ".probe.log") ~name:"probe"
  in
  let c = Client.connect p.Procs.port in
  let reorder line =
    match String.split_on_char ' ' line with
    | verb :: family :: alpha :: k :: terms ->
        String.concat " " (verb :: family :: alpha :: k :: List.rev terms)
    | _ -> line
  in
  let expected l = Answers.expected searcher (Answers.parse l) in
  let n = min check_sample (Array.length pool) in
  let reordered =
    match
     List.find_opt
       (fun l -> expected l <> expected (reorder l))
       (Array.to_list (Array.sub pool 0 n))
   with
  | Some l ->
      let l' = reorder l in
      ignore (Client.round_trip c l);
      let _, got = Client.round_trip c l' in
      if got <> expected l' then begin
        Printf.printf "MISMATCH (known defect) %S, sent after %S, is answered with the bytes of \
                       the cached reordering, not its own\n" l' l;
        1
      end
      else begin
        Printf.printf "defect probe passed: %S is answered with its own bytes\n" l';
        0
      end
  | None ->
      Printf.printf "defect probe: no reordering among %d lines changes the answer's bytes\n" n;
      0
  in
  let w = (Lazy.force Gen.vocabulary).(10) in
  let line = Printf.sprintf "SEARCH win 0.1 10 exact:%s exact:%s" w w in
  let wedged =
    match (Client.burst c [| line |] ~drain_s:1.).Client.response.(0) with
    | "" ->
        Printf.printf "MISMATCH (known defect) %S got no answer within 1 s (deadline 200 ms)\n" line;
        1
    | a ->
        Printf.printf "defect probe passed: %S answered %S\n" line a;
        0
  in
  Client.close c;
  Procs.stop p;
  reordered + wedged

let defect_probe_count = 2

(* The defect_probes workload, run by hand: this seed's query_mono
   corpus and pool, compacted, and both probes against it. A reproduced
   defect is a wrong answer, so the run reports "correct": false and
   exits 1 until the program is fixed. The measured workloads must run
   without failing operations, so they never send these lines. *)
let defect_workload ctx =
  let inputs = query_inputs ctx ~stream_len:0 in
  let docs_file = path ctx "docs.txt" in
  Gen.write_docs docs_file inputs.docs;
  let idx = path ctx "probe.pjx4" in
  compact ctx ~src:docs_file ~dst:idx;
  let searcher =
    Pj_engine.Searcher.create (Pj_ondisk.Mapped_index.index (Pj_ondisk.Mapped_index.open_file idx))
  in
  let failed = defect_probes ctx ~idx ~searcher ~pool:inputs.pool in
  { metrics = []; extra = []; attempted = defect_probe_count; failed; mismatches = failed; valid = true }

(* --- query_mono / query_routed ------------------------------------------ *)

let warmup_s = 1.0

let query_workload ctx ~routed =
  let cfg = ctx.cfg in
  let rates = cfg.Config.rates in
  (* Every non-reference rung gets 10% more requests than a valid p99
     needs; the top rung, offered past capacity, gets enough to keep the
     server backlogged for a while. *)
  let counts =
    Schedule.rung_counts ~seconds:cfg.Config.seconds ~rates ~ref_rate:cfg.Config.ref_rate
      ~min_count:(Tail.min_beyond * 110) ~top_count:Config.saturate_count
  in
  let n_warm = int_of_float (cfg.Config.ref_rate *. warmup_s) in
  let inputs = query_inputs ctx ~stream_len:(n_warm + List.fold_left ( + ) 0 counts) in
  let docs_file = path ctx "docs.txt" in
  Gen.write_docs docs_file inputs.docs;
  let slice_files =
    List.mapi
      (fun i d ->
        let f = path ctx (Printf.sprintf "slice%d.txt" i) in
        Gen.write_docs f d;
        f)
      (halves inputs.docs)
  in
  let setup rep =
    if routed then begin
      let slices =
        List.mapi
          (fun i src ->
            let dst = path ctx (Printf.sprintf "r%d-slice%d.pjx4" rep i) in
            compact ctx ~src ~dst;
            dst)
          slice_files
      in
      (start_routed ctx ~slices, slices)
    end
    else begin
      let dst = path ctx (Printf.sprintf "r%d-mono.pjx4" rep) in
      compact ctx ~src:docs_file ~dst;
      (start_mono ctx ~idx:dst, [ dst ])
    end
  in
  let (stack, files), setup_s = repeated_setup ctx setup in
  let client = ref (Client.connect stack.front.Procs.port) in
  let line i = inputs.pool.(inputs.stream.(i)) in
  let rng = Pj_util.Prng.split ctx.rng in
  let all_responses = ref [] in
  let phase ~first ~count ~rate =
    let lines = Array.init count (fun i -> line (first + i)) in
    let p = run_phase client ~rng ~rate ~lines ~ok_line:Answers.is_hits in
    Array.iteri (fun i r -> all_responses := (lines.(i), r) :: !all_responses) p.result.Client.response;
    p
  in
  (* Warm-up: the most popular lines once (the result cache's steady
     state), then a second at the reference rate. *)
  ignore (Client.burst !client (Array.sub inputs.pool 0 (min cache_entries (Array.length inputs.pool))) ~drain_s:60.);
  ignore (phase ~first:0 ~count:n_warm ~rate:cfg.Config.ref_rate);
  let first = ref n_warm in
  let ref_cpu_ms = ref Float.nan in
  let rungs =
    List.map2
      (fun rate count ->
        let p, cpu_ms =
          cpu_ms_per_request stack ~requests:count (fun () -> phase ~first:!first ~count ~rate)
        in
        if rate = cfg.Config.ref_rate then ref_cpu_ms := cpu_ms;
        first := !first + count;
        Thread.delay 0.2;
        summarize ctx p (fun _ -> true))
      rates counts
  in
  List.iter (print_rung "search") rungs;
  let stats = Procs.stats stack.front.Procs.port in
  let rss = rss_mb stack in
  Client.close !client;
  let restart () =
    if routed then start_routed ctx ~slices:files else start_mono ctx ~idx:(List.hd files)
  in
  let stack, recovery_s = repeated_recovery stack restart in
  stop_stack stack;
  (* Answers: a fixed sample (the most frequent pool lines) against an
     in-process search over the whole corpus's v4 file — for the routed
     stack this is the mono answer, which must match byte for byte. *)
  let full =
    if routed then begin
      let dst = path ctx "reference.pjx4" in
      compact ctx ~src:docs_file ~dst;
      dst
    end
    else List.hd files
  in
  let searcher =
    Pj_engine.Searcher.create
      (Pj_ondisk.Mapped_index.index (Pj_ondisk.Mapped_index.open_file full))
  in
  let sample = Hashtbl.create check_sample in
  Array.iteri (fun i l -> if i < check_sample then Hashtbl.replace sample l ()) inputs.pool;
  let mismatches =
    check_answers ~responses:!all_responses ~reference:(fun l ->
        if Hashtbl.mem sample l then Some (Answers.expected searcher (Answers.parse l))
        else None)
  in
  let ref_rung = List.find (fun s -> s.r_rate = cfg.Config.ref_rate) rungs in
  let top = List.nth rungs (List.length rungs - 1) in
  let passing = List.filter (fun s -> s.meets_slo) rungs in
  let max_qps = List.fold_left (fun acc s -> Float.max acc s.achieved_qps) 0. passing in
  let highest_pass = List.fold_left (fun acc s -> Float.max acc s.r_rate) 0. passing in
  let valid =
    List.for_all
      (fun s -> s.generator_ok || (s.r_rate > highest_pass && s.r_rate <> cfg.Config.ref_rate))
      rungs
  in
  let text_bytes = float_of_int (Gen.text_bytes inputs.docs) in
  let disk = List.fold_left (fun acc f -> acc + (Unix.stat f).Unix.st_size) 0 files in
  let attempted = List.length !all_responses in
  let failed = List.fold_left (fun acc (_, r) -> if Answers.is_hits r then acc else acc + 1) 0 !all_responses in
  Printf.printf "cache hits=%s misses=%s\n"
    (Option.value (List.assoc_opt "cache_hits" stats) ~default:"?")
    (Option.value (List.assoc_opt "cache_misses" stats) ~default:"?");
  {
    metrics =
      [
        ("setup_s", setup_s, "s");
        ("server_cpu_ms_per_request", !ref_cpu_ms, "ms");
        ("disk_bytes_per_input_byte", float_of_int disk /. text_bytes, "1");
        ("server_rss_mb", rss, "MB");
      ];
    extra =
      [
        ("saturated_qps", top.saturated_qps, "qps");
        ("max_qps_within_slo", max_qps, "qps");
        ("recovery_s", recovery_s, "s");
        ("search_p50_ms", ref_rung.block_p50.Tail.value, "ms");
        ("search_p99_ms", ref_rung.block_p99.Tail.value, "ms");
        ("search_p99_samples", float_of_int ref_rung.block_p99.Tail.n, "count");
        ("fail_ratio", float_of_int (failed + mismatches) /. float_of_int (max 1 attempted), "1");
      ];
    attempted;
    failed = failed + mismatches;
    mismatches;
    valid;
  }

(* --- ingest_mixed ----------------------------------------------------- *)

type ingest_inputs = {
  seed_docs : string array;
  ipool : string array;
  istream : int array;  (** SEARCH lines, as pool indexes *)
  adds : string array;  (** ADDDOC texts, all sent in the open-loop phase *)
  n_mixed_search : int;  (** searches of the open-loop phase; the rest are the burst's *)
}

let ingest_inputs ctx =
  let cfg = ctx.cfg in
  let rng = Pj_util.Prng.split ctx.rng in
  let seed_docs = Array.init Config.seed_docs (fun _ -> Gen.doc rng) in
  let ipool = Gen.pool rng Config.pool in
  let n_add = int_of_float (cfg.Config.add_rate *. cfg.Config.seconds) in
  let n_mixed_search = int_of_float (cfg.Config.mixed_search_rate *. cfg.Config.seconds) in
  let adds = Array.init n_add (fun i -> Gen.add_doc rng i) in
  (* Every ADDDOC bumps the index generation, which retires every cached
     answer; searches are drawn uniformly so no single popular line,
     never served from cache here, decides the tail. *)
  let istream =
    Gen.stream rng ~s:0. ~pool_size:(Array.length ipool)
      ~count:(n_mixed_search + Config.ingest_saturate_count)
  in
  { seed_docs; ipool; istream; adds; n_mixed_search }

let ingest_workload ctx =
  let cfg = ctx.cfg in
  let { seed_docs; ipool = pool; istream = stream; adds; n_mixed_search } = ingest_inputs ctx in
  let n_add = Array.length adds in
  let rng = Pj_util.Prng.split ctx.rng in
  let seed_file = path ctx "seed.txt" in
  Gen.write_docs seed_file seed_docs;
  let setup rep =
    let live_dir = path ctx (Printf.sprintf "r%d-live" rep) in
    (start_live ctx ~seed_file ~live_dir, live_dir)
  in
  let (stack, live_dir), setup_s = repeated_setup ctx setup in
  let client = ref (Client.connect stack.front.Procs.port) in
  (* Mixed stream: two Poisson processes merged by due time. *)
  let add_at = Schedule.poisson rng ~rate:cfg.Config.add_rate ~count:n_add in
  let search_at = Schedule.poisson rng ~rate:cfg.Config.mixed_search_rate ~count:n_mixed_search in
  let merged = Schedule.merge add_at search_at in
  let line = function _, `A i -> "ADDDOC " ^ adds.(i) | _, `B j -> pool.(stream.(j)) in
  let is_add = function _, `A _ -> true | _ -> false in
  let ok_line item r =
    if is_add item then String.length r > 6 && String.sub r 0 6 = "ADDED " else Answers.is_hits r
  in
  let start = now () +. 0.05 in
  let due = Array.map (fun (o, _) -> start +. o) merged in
  let result, cpu_ms =
    cpu_ms_per_request stack ~requests:(Array.length merged) (fun () ->
        Client.open_loop !client ~lines:(Array.map line merged) ~due ~drain_s:15.)
  in
  let ok = Array.mapi (fun i r -> ok_line merged.(i) r) result.Client.response in
  let total_rate = cfg.Config.add_rate +. cfg.Config.mixed_search_rate in
  let p = { rate = total_rate; result; ok } in
  let acks = summarize ctx p (fun i -> is_add merged.(i))
  and searches = summarize ctx p (fun i -> not (is_add merged.(i))) in
  let both = summarize ctx p (fun _ -> true) in
  print_rung "adddoc" acks;
  print_rung "search" searches;
  (* Acknowledged documents by id. *)
  let acked = Hashtbl.create n_add in
  Array.iteri
    (fun i r ->
      match merged.(i) with
      | _, `A a when ok.(i) ->
          Hashtbl.replace acked (int_of_string (String.sub r 6 (String.length r - 6))) a
      | _ -> ())
    result.Client.response;
  let flushed = Procs.text_request stack.front.Procs.port "FLUSH" in
  if not (String.length flushed > 7 && String.sub flushed 0 7 = "FLUSHED") then
    failwith ("FLUSH answered " ^ flushed);
  (* The background merger keeps compacting after FLUSH, and a merge in
     flight holds its inputs and its output on disk at once: go on once
     the segment count, the merge count and the directory's size have
     held still for half a second (at most 15 s). The disk figure and
     the burst below then see the same settled index on every run. *)
  let settled () =
    let s = Procs.stats stack.front.Procs.port in
    (Procs.stat_float s "segments", Procs.stat_float s "merges", Procs.dir_bytes live_dir)
  in
  let rec settle last still t_end =
    Thread.delay 0.1;
    let now_s = settled () in
    if now_s = last && still >= 4 then now_s
    else if now () > t_end then now_s
    else settle now_s (if now_s = last then still + 1 else 0) t_end
  in
  let segments, merges, disk = settle (settled ()) 0 (now () +. 15.) in
  Printf.printf "live dir after FLUSH, settled: %d bytes, segments=%g merges=%g\n" disk segments merges;
  (* Then the saturating burst: the rest of the search stream, all due
     at once, over the settled live index. *)
  let burst = Array.init Config.ingest_saturate_count (fun j -> pool.(stream.(n_mixed_search + j))) in
  let bresult = Client.burst !client burst ~drain_s:30. in
  let bok = Array.map Answers.is_hits bresult.Client.response in
  let saturated = summarize ctx { rate = Float.infinity; result = bresult; ok = bok } (fun _ -> true) in
  print_rung "burst" saturated;
  Client.close !client;
  let stats = Procs.stats stack.front.Procs.port in
  let rss = rss_mb stack in
  let batch_size = Procs.stat_float stats "batched_adds" /. Procs.stat_float stats "ingest_batches" in
  let restart () = start_live ctx ~seed_file ~live_dir in
  let stack, recovery_s = repeated_recovery stack restart in
  (* Recovered = acknowledged: the document count, every acknowledged
     id found by its marker, and sample answers equal to a from-scratch
     build over the seed plus the acknowledged documents in id order. *)
  let n_seed = Array.length seed_docs in
  let n_acked = Hashtbl.length acked in
  let ids = List.sort compare (Hashtbl.fold (fun id _ acc -> id :: acc) acked []) in
  let dense = ids = List.init n_acked (fun i -> n_seed + i) in
  let docs_now = Procs.stat_float (Procs.stats stack.front.Procs.port) "docs" in
  let mismatches = ref 0 in
  if not dense then begin
    Printf.printf "MISMATCH acknowledged ids are not dense after the seed\n";
    incr mismatches
  end;
  if docs_now <> float_of_int (n_seed + n_acked) then begin
    Printf.printf "MISMATCH recovered docs=%g, acknowledged %d + seed %d\n" docs_now n_acked n_seed;
    incr mismatches
  end;
  let verify = Client.connect stack.front.Procs.port in
  let marker_lines =
    Array.of_list
      (List.map (fun id -> Printf.sprintf "SEARCH win 0.1 1 exact:%s" (Gen.marker (Hashtbl.find acked id))) ids)
  in
  let found = Client.burst verify marker_lines ~drain_s:30. in
  List.iteri
    (fun i id ->
      let want = Printf.sprintf "HITS 1 %d:" id in
      let r = found.Client.response.(i) in
      if not (String.length r >= String.length want && String.sub r 0 (String.length want) = want)
      then begin
        incr mismatches;
        if !mismatches <= 3 then Printf.printf "MISMATCH acknowledged doc %d: %s -> %S\n" id marker_lines.(i) r
      end)
    ids;
  let sample = Array.sub pool 0 (min check_sample (Array.length pool)) in
  let answers = Client.burst verify sample ~drain_s:30. in
  Client.close verify;
  stop_stack stack;
  let scratch_docs =
    Array.append seed_docs (Array.of_list (List.map (fun id -> adds.(Hashtbl.find acked id)) ids))
  in
  let searcher =
    Pj_engine.Searcher.create (Pj_index.Inverted_index.build (Gen.corpus scratch_docs))
  in
  mismatches :=
    !mismatches
    + check_answers
        ~responses:(Array.to_list (Array.mapi (fun i r -> (sample.(i), r)) answers.Client.response))
        ~reference:(fun l -> Some (Answers.expected searcher (Answers.parse l)));
  let failed_verify =
    Array.fold_left (fun acc r -> if Answers.is_hits r then acc else acc + 1) 0 answers.Client.response
  in
  let acked_bytes =
    Hashtbl.fold (fun _ a acc -> acc + String.length adds.(a)) acked (Gen.text_bytes seed_docs)
  in
  let attempted =
    Array.length merged + Array.length burst + Array.length marker_lines + Array.length sample
  in
  let failed = acks.failed + searches.failed + saturated.failed + failed_verify + !mismatches in
  {
    metrics =
      [
        ("setup_s", setup_s, "s");
        ("server_cpu_ms_per_request", cpu_ms, "ms");
        ("disk_bytes_per_input_byte", float_of_int disk /. float_of_int acked_bytes, "1");
        ("server_rss_mb", rss, "MB");
      ];
    extra =
      [
        ("saturated_qps", saturated.saturated_qps, "qps");
        ("max_qps_within_slo", (if acks.meets_slo && searches.meets_slo then both.achieved_qps else 0.), "qps");
        ("recovery_s", recovery_s, "s");
        ("ack_p50_ms", acks.block_p50.Tail.value, "ms");
        ("ack_p99_ms", acks.block_p99.Tail.value, "ms");
        ("ack_p99_samples", float_of_int acks.block_p99.Tail.n, "count");
        ("search_p50_ms", searches.block_p50.Tail.value, "ms");
        ("search_p99_ms", searches.block_p99.Tail.value, "ms");
        ("search_p99_samples", float_of_int searches.block_p99.Tail.n, "count");
        ("ingest_batcher.batch_size", batch_size, "docs");
        ("fail_ratio", float_of_int failed /. float_of_int (max 1 attempted), "1");
      ];
    attempted;
    failed;
    mismatches = !mismatches;
    valid = acks.generator_ok && searches.generator_ok;
  }
