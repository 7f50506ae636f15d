(* bench-failpoint: what a compiled-in failpoint site costs the hot
   path. Three regimes matter:

   - disabled (no rule armed anywhere): the production steady state —
     one atomic load per [hit], the cost every serving request pays
     for the chaos hooks. This is the number that must stay ~free.
   - armed elsewhere: some rule is armed, but not for this site — the
     hit takes the slow path far enough to discover it doesn't match.
     This is what healthy requests pay while another site is being
     tortured.
   - end-to-end: one search through a [Worker_pool], whose worker hits
     the [worker.job] site before every job ([Runs.query] over
     [Runs.gen_docs]), with sites disabled vs armed-elsewhere, to bound the
     serving-path overhead as a ratio rather than nanoseconds.

   Results land in BENCH_failpoint.json. *)

let site = "bench.fp.site"

let run ~quick ~repetitions =
  let repetitions = repetitions * 20 in
  let calls = if quick then 200_000 else 1_000_000 in
  Pj_util.Failpoint.clear ();
  Runs.print_header
    (Printf.sprintf "bench-failpoint: per-hit cost, %d calls" calls)
    [ "total"; "per call" ];
  let row name p =
    Runs.print_row name
      [
        Runs.seconds p.Runs.mean_s;
        Printf.sprintf "%.2f ns" (1e9 *. p.Runs.mean_s /. float_of_int calls);
      ]
  in
  (* The loop itself, so the per-call numbers can be read as deltas. *)
  let sink = ref 0 in
  let baseline =
    Runs.measure ~repetitions (fun () ->
        for i = 1 to calls do
          sink := !sink lxor i
        done)
  in
  row "empty loop" baseline;
  let disabled =
    Runs.measure ~repetitions (fun () ->
        for i = 1 to calls do
          sink := !sink lxor i;
          Pj_util.Failpoint.hit site
        done)
  in
  row "hit, disabled" disabled;
  Pj_util.Failpoint.arm "some.other.site" Pj_util.Failpoint.Fail;
  let armed_elsewhere =
    Runs.measure ~repetitions (fun () ->
        for i = 1 to calls do
          sink := !sink lxor i;
          Pj_util.Failpoint.hit site
        done)
  in
  row "hit, armed elsewhere" armed_elsewhere;
  Pj_util.Failpoint.clear ();
  assert (Pj_util.Failpoint.fired site = 0);
  ignore (Sys.opaque_identity !sink);
  (* End-to-end: a query's latency through the worker pool with its
     worker.job site disabled vs armed-elsewhere. *)
  let rng = Pj_util.Prng.create 2024 in
  let n_docs = if quick then 500 else 2000 in
  let corpus = Pj_index.Corpus.create () in
  List.iter
    (fun doc -> ignore (Pj_index.Corpus.add_tokens corpus doc))
    (Runs.gen_docs rng n_docs);
  let pool =
    Pj_server.Worker_pool.create ~domains:1 ~queue_capacity:4
      (Pj_server.Worker_pool.of_searcher
         (Pj_engine.Searcher.create (Pj_index.Inverted_index.build corpus)))
  in
  let deadline () = Pj_util.Timing.monotonic_now () +. 60. in
  let query_once () =
    match
      Pj_server.Worker_pool.run pool ~scoring:Runs.scoring ~k:Runs.k
        ~deadline:(deadline ()) Runs.query
    with
    | `Done (Pj_server.Worker_pool.Hits _) -> ()
    | `Done _ | `Busy -> assert false
  in
  let e2e_disabled = Runs.measure ~repetitions query_once in
  Pj_util.Failpoint.arm "some.other.site" Pj_util.Failpoint.Fail;
  let e2e_armed = Runs.measure ~repetitions query_once in
  Pj_util.Failpoint.clear ();
  Pj_server.Worker_pool.shutdown pool;
  Runs.print_header "bench-failpoint: query through the worker pool"
    [ "latency" ];
  Runs.print_row "sites disabled" [ Runs.seconds e2e_disabled.Runs.mean_s ];
  Runs.print_row "armed elsewhere" [ Runs.seconds e2e_armed.Runs.mean_s ];
  let secs p = Runs.Num (9, p.Runs.mean_s) in
  Runs.write_json "failpoint"
    (Runs.Obj
       [
         ("calls", Runs.Int calls);
         ("empty_loop_s", secs baseline);
         ("disabled_s", secs disabled);
         ("armed_elsewhere_s", secs armed_elsewhere);
         ( "disabled_ns_per_call",
           Runs.Num
             ( 3,
               1e9
               *. (disabled.Runs.mean_s -. baseline.Runs.mean_s)
               /. float_of_int calls ) );
         ("query_disabled_s", secs e2e_disabled);
         ("query_armed_elsewhere_s", secs e2e_armed);
         ( "query_overhead_ratio",
           Runs.Num
             ( 4,
               e2e_armed.Runs.mean_s
               /. Float.max 1e-12 e2e_disabled.Runs.mean_s ) );
       ])
