(* perfbench: the repository's benchmark. One command runs one workload
   against real proxjoin server processes through the socket, checks
   the answers, and prints every metric by name with its unit; the last
   line of stdout is one JSON object. See perfbench/README.md.

     bash perfbench/run.sh <constants from BENCHMARK.json> \
       --workload query_mono --seed 1 --seconds 35 --trace 0

   Exit codes: 0 ok; 1 an answer was wrong (the JSON line still
   prints, with "correct": false); 2 bad arguments or a failed set-up.
   A load generator that fell behind its own schedule marks the run's
   latency and rate figures invalid and leaves them out. *)

module Config = Perfbench_kit.Config
module Json = Perfbench_kit.Json

let commit () =
  (* The checkout a benchmark runs in need not be a git repository. *)
  let read f = String.trim (Procs.read_file f) in
  match read ".git/HEAD" with
  | "" -> "unknown (not a git checkout)"
  | head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      match read (".git/" ^ String.sub head 5 (String.length head - 5)) with
      | "" -> head
      | sha -> sha)
  | sha -> sha

let header cfg =
  Printf.printf "# perfbench workload=%s seed=%d seconds=%g trace=%b\n" cfg.Config.workload
    cfg.Config.seed cfg.Config.seconds cfg.Config.trace;
  Printf.printf "# nproc=%d ocaml=%s commit=%s\n" (Domain.recommended_domain_count ())
    Sys.ocaml_version (commit ());
  Printf.printf
    "# servers: mono serve --domains %d; live serve --domains %d; routed: 2 backends x \
     --domains %d + serve-router (1 domain); flags: %s; router: %s\n"
    Config.domains Config.live_domains Config.backend_domains
    (String.concat " " Workloads.server_flags)
    (String.concat " " Workloads.router_flags);
  Printf.printf
    "# corpus: query_* %d docs, ingest_mixed %d seed docs + %g ADDDOC/s; pool %d \
     distinct SEARCH lines\n"
    Config.docs Config.seed_docs cfg.Config.add_rate Config.pool;
  Printf.printf
    "# offered: query_* ladder %s req/s (reference %g); ingest_mixed %g ADDDOC/s + %g \
     SEARCH/s; latency limit p99 <= %g ms (ingest_mixed %g ms); set-ups per run %d\n"
    (String.concat "," (List.map (Printf.sprintf "%g") cfg.Config.rates))
    cfg.Config.ref_rate cfg.Config.add_rate cfg.Config.mixed_search_rate cfg.Config.slo_ms
    cfg.Config.ingest_slo_ms (Config.setup_reps_of cfg.Config.workload);
  Printf.printf "# load: 1 process, 2 threads (sender, receiver), <= 2 connections\n%!"

(* A fixed CPU-bound loop, timed: printed at the start and end of every
   run so a host that slows down under other tenants shows in the
   output. It is a gauge only; no metric is scaled by it. *)
let host_gauge_ms () =
  let t0 = Pj_util.Timing.monotonic_now () in
  let x = ref 1 in
  for i = 1 to 20_000_000 do
    x := (!x * 1103515245) + i land 0xffff
  done;
  ignore (Sys.opaque_identity !x);
  (Pj_util.Timing.monotonic_now () -. t0) *. 1000.

let result ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, v, u) -> (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
                metrics) );
       ])

let print_metrics label l =
  List.iter (fun (name, v, u) -> Printf.printf "%s %s = %.6g %s\n" label name v u) l

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Interrupted, still stop every server started. *)
  let on_signal _ = exit 130 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  let cfg =
    match Config.parse (List.tl (Array.to_list Sys.argv)) with
    | Ok c -> c
    | Error msg ->
        prerr_endline ("perfbench: " ^ msg);
        exit 2
  in
  header cfg;
  Printf.printf "# host gauge at start: %.1f ms\n%!" (host_gauge_ms ());
  let dir =
    Printf.sprintf ".perfbench_work/%s-%d-%d" cfg.Config.workload cfg.Config.seed (Unix.getpid ())
  in
  (try Unix.mkdir ".perfbench_work" 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
  Unix.mkdir dir 0o755;
  let ctx = { Workloads.cfg; dir; rng = Pj_util.Prng.create cfg.Config.seed } in
  let code =
    try
      if cfg.Config.workload = Config.probe_workload then begin
        let o = Workloads.defect_workload ctx in
        print_endline
          (result ~correct:(o.Workloads.mismatches = 0) ~attempted:o.Workloads.attempted
             ~failed:o.Workloads.failed o.Workloads.metrics);
        if o.Workloads.mismatches = 0 then 0 else 1
      end
      else if cfg.Config.trace then begin
        let t = Traced.run ctx in
        Printf.printf "# host gauge at end: %.1f ms\n" (host_gauge_ms ());
        print_metrics "layer" t.Traced.metrics;
        print_endline
          (result ~correct:(t.Traced.mismatches = 0) ~attempted:t.Traced.attempted
             ~failed:t.Traced.mismatches t.Traced.metrics);
        if t.Traced.mismatches = 0 then 0 else 1
      end
      else begin
        let o =
          match cfg.Config.workload with
          | "ingest_mixed" -> Workloads.ingest_workload ctx
          | w -> Workloads.query_workload ctx ~routed:(w = "query_routed")
        in
        Printf.printf "# host gauge at end: %.1f ms\n" (host_gauge_ms ());
        print_metrics "metric" o.Workloads.metrics;
        (* A generator that fell behind its schedule offered another load
           than the one named, so the latency and rate figures are not
           reported. The JSON metrics count CPU, bytes and set-up time,
           which do not depend on when requests were sent. *)
        if o.Workloads.valid then print_metrics "metric" o.Workloads.extra
        else
          print_endline
            "INVALID: the load generator fell behind its schedule; latency and rate figures \
             are not reported";
        print_endline
          (result ~correct:(o.Workloads.mismatches = 0) ~attempted:o.Workloads.attempted
             ~failed:o.Workloads.failed o.Workloads.metrics);
        if o.Workloads.mismatches = 0 then 0 else 1
      end
    with Failure msg | Sys_error msg ->
      prerr_endline ("perfbench: " ^ msg);
      2
  in
  Procs.kill_all ();
  Procs.remove_tree dir;
  exit code
