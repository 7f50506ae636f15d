(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (Section VIII), plus the ablations of DESIGN.md and a
   Bechamel micro-benchmark suite.

     dune exec bench/main.exe                  # everything, paper scale
     dune exec bench/main.exe -- --quick       # reduced document counts
     dune exec bench/main.exe -- --only fig6,fig12
     dune exec bench/main.exe -- --list        # available experiment ids *)

let available =
  [
    "fig6"; "fig7"; "fig8"; "fig9"; "fig10"; "fig11"; "fig12"; "dbworld";
    "fig2_ablation"; "max_ablation"; "dedup_ablation"; "byloc_ablation";
    "switch_ablation"; "winvalid_ablation"; "stream_ablation";
    "search_ablation"; "parallel_ablation"; "alpha_ablation"; "daat";
    "topk"; "failpoint"; "ingest"; "storage"; "cluster"; "bechamel";
  ]

let run_experiments ~quick ~only ~csv =
  let selected id = match only with [] -> true | ids -> List.mem id ids in
  let n_docs = if quick then 100 else 500 in
  let trec_docs = if quick then 200 else 1000 in
  let repetitions = if quick then 2 else 3 in
  let cfg =
    { Figures.default_config with Figures.n_docs; repetitions }
  in
  (match csv with
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Runs.set_csv_dir (Some dir)
  | None -> ());
  let t0 = Unix.gettimeofday () in
  Printf.printf
    "proxjoin benchmark harness — %d synthetic docs, %d TREC docs, %d repetitions\n"
    n_docs trec_docs repetitions;
  if selected "fig6" then Figures.fig6 cfg;
  if selected "fig7" then Figures.fig7 cfg;
  if selected "fig8" then Figures.fig8 cfg;
  if selected "fig9" then Figures.fig9 cfg;
  if selected "fig10" then Figures.fig10 cfg;
  if selected "fig11" then Trec_bench.fig11 ~n_docs:trec_docs ~repetitions;
  if selected "fig12" then Trec_bench.fig12 ~n_docs:trec_docs;
  if selected "dbworld" then Dbworld_bench.run ~repetitions;
  if selected "fig2_ablation" then Ablations.fig2_ablation ();
  if selected "max_ablation" then
    Ablations.max_ablation ~n_docs:(n_docs / 5) ~repetitions;
  if selected "dedup_ablation" then Ablations.dedup_ablation ~n_docs ~repetitions;
  if selected "byloc_ablation" then Ablations.byloc_ablation ~n_docs ~repetitions;
  if selected "switch_ablation" then Ablations.switch_ablation ~n_docs ~repetitions;
  if selected "winvalid_ablation" then
    Ablations.winvalid_ablation ~n_docs ~repetitions;
  if selected "stream_ablation" then
    Ablations.stream_ablation ~n_docs ~repetitions;
  if selected "search_ablation" then Ablations.search_ablation ~repetitions;
  if selected "parallel_ablation" then
    Ablations.parallel_ablation ~n_docs ~repetitions;
  if selected "alpha_ablation" then Ablations.alpha_ablation ~n_docs;
  if selected "daat" then Daat_bench.run ~quick ~repetitions;
  if selected "topk" then Topk_bench.run ~quick ~repetitions;
  if selected "failpoint" then Failpoint_bench.run ~quick ~repetitions;
  if selected "ingest" then Ingest_bench.run ~quick ~repetitions;
  if selected "storage" then Storage_bench.run ~quick ~repetitions;
  if selected "cluster" then Load_bench.run ~quick ~repetitions;
  if selected "bechamel" then
    Bechamel_suite.run ~quota_s:(if quick then 0.1 else 0.25);
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
    List.iter print_endline available;
    `Ok ()
  end
  else begin
    match List.filter (fun id -> not (List.mem id available)) only with
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
