(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (Section VIII), plus the ablations of DESIGN.md and the
   BENCH_*.json producers.

     dune exec bench/main.exe                  # everything, paper scale
     dune exec bench/main.exe -- --quick       # reduced document counts
     dune exec bench/main.exe -- --only fig6,fig12
     dune exec bench/main.exe -- --list        # available experiment ids *)

type scale = { quick : bool; n_docs : int; trec_docs : int; repetitions : int }

let scale quick =
  {
    quick;
    n_docs = (if quick then 100 else 500);
    trec_docs = (if quick then 200 else 1000);
    repetitions = (if quick then 2 else 3);
  }

(* Every experiment id with its runner, in run order. *)
let experiments { quick; n_docs; trec_docs; repetitions } =
  let cfg = { Figures.default_config with Figures.n_docs; repetitions } in
  [
    ("fig6", fun () -> Figures.fig6 cfg);
    ("fig7", fun () -> Figures.fig7 cfg);
    ("fig8", fun () -> Figures.fig8 cfg);
    ("fig9", fun () -> Figures.fig9 cfg);
    ("fig10", fun () -> Figures.fig10 cfg);
    ("fig11", fun () -> Trec_bench.fig11 ~n_docs:trec_docs ~repetitions);
    ("fig12", fun () -> Trec_bench.fig12 ~n_docs:trec_docs);
    ("dbworld", fun () -> Dbworld_bench.run ~repetitions);
    ("fig2_ablation", Ablations.fig2_ablation);
    ( "max_ablation",
      fun () -> Ablations.max_ablation ~n_docs:(n_docs / 5) ~repetitions );
    ("dedup_ablation", fun () -> Ablations.dedup_ablation ~n_docs ~repetitions);
    ("byloc_ablation", fun () -> Ablations.byloc_ablation ~n_docs ~repetitions);
    ( "switch_ablation",
      fun () -> Ablations.switch_ablation ~n_docs ~repetitions );
    ( "winvalid_ablation",
      fun () -> Ablations.winvalid_ablation ~n_docs ~repetitions );
    ( "stream_ablation",
      fun () -> Ablations.stream_ablation ~n_docs ~repetitions );
    ("search_ablation", fun () -> Ablations.search_ablation ~repetitions);
    ( "parallel_ablation",
      fun () -> Ablations.parallel_ablation ~n_docs ~repetitions );
    ("alpha_ablation", fun () -> Ablations.alpha_ablation ~n_docs);
    ("topk", fun () -> Topk_bench.run ~quick ~repetitions);
    ("failpoint", fun () -> Failpoint_bench.run ~quick ~repetitions);
    ("ingest", fun () -> Ingest_bench.run ~quick);
    ("storage", fun () -> Storage_bench.run ~quick);
    ("cluster", fun () -> Load_bench.run ~quick);
  ]

let ids = List.map fst (experiments (scale false))

let run_experiments ~quick ~only ~csv =
  let s = scale quick in
  (match csv with
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Runs.set_csv_dir (Some dir)
  | None -> ());
  let t0 = Unix.gettimeofday () in
  Printf.printf
    "proxjoin benchmark harness — %d synthetic docs, %d TREC docs, %d repetitions\n"
    s.n_docs s.trec_docs s.repetitions;
  List.iter
    (fun (id, run) -> if only = [] || List.mem id only then run ())
    (experiments s);
  Runs.set_csv_dir None;
  Runs.report_cov_summary ();
  Printf.printf "\ntotal harness time: %.1fs\n" (Unix.gettimeofday () -. t0)

open Cmdliner

let quick =
  Arg.(value & flag & info [ "quick" ] ~doc:"Reduced document counts.")

let only =
  Arg.(
    value
    & opt (list string) []
    & info [ "only" ] ~docv:"IDS"
        ~doc:"Comma-separated experiment ids to run (see --list).")

let list_flag =
  Arg.(value & flag & info [ "list" ] ~doc:"List experiment ids and exit.")

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"DIR"
        ~doc:"Also write every table as a CSV file into DIR.")

let main quick only list_flag csv =
  if list_flag then begin
    List.iter print_endline ids;
    `Ok ()
  end
  else begin
    match List.filter (fun id -> not (List.mem id ids)) only with
    | [] ->
        run_experiments ~quick ~only ~csv;
        `Ok ()
    | bad ->
        `Error
          (false, "unknown experiment ids: " ^ String.concat ", " bad)
  end

let cmd =
  let doc =
    "Regenerate the tables and figures of 'Weighted Proximity Best-Joins \
     for Information Retrieval' (ICDE 2009)."
  in
  Cmd.v
    (Cmd.info "proxjoin-bench" ~doc)
    Term.(ret (const main $ quick $ only $ list_flag $ csv_arg))

let () = exit (Cmd.eval cmd)
