(* bench-topk: single-query latency of the searcher's block-max pruned
   traversal, and how many of the conjunctive candidates
   ([Searcher.candidates]) it still aligns, on three corpus layouts:

   - "uniform": strong documents spread evenly over the id space. This
     is the layout block-max pruning is for — and where whole-list
     max-score pruning is useless: the degraded (weak, dense) forms
     are conjunctive everywhere, so nearly every document is a
     candidate, while the traversal demotes the weak forms to
     non-essential as soon as the heap fills (their proximity-free
     ceiling loses to the k-th strong score) and leapfrogs only the
     sparse strong lists, region-skipping the rest block by block.

   - "quality_ordered": strong documents first. The whole-list
     max-score early stop kills the tail here.

   - "impact_skewed": uniform plus heavy term repetition in a few
     documents: their positions lists grow, their form scores do not.

   The pruned hits are checked byte-identical to the exhaustive
   reference ([Pj_reference]) before anything is timed.

   A second row times one best-join solve: [Best_join.solve ~dedup:true]
   (the call the reference searcher and perfbench's traced layer
   decomposition make) for each served instance — [win_exponential],
   [med_exponential], [max_sum] — over the match-list problems of real
   candidates of 2-, 3- and 4-term queries on the uniform corpus,
   in ns and allocated bytes per solve. Results land in
   BENCH_topk.json. *)

let build_corpus ~n_docs ~layout rng =
  let corpus = Pj_index.Corpus.create () in
  let add ~strong ~spike =
    ignore
      (Pj_index.Corpus.add_tokens corpus
         (Runs.gen_doc rng ~min_len:80 ~len_span:120 ~strong ~spike))
  in
  (match layout with
  | `Quality_ordered ->
      let n_strong = n_docs / 25 in
      for _ = 1 to n_strong do
        add ~strong:true ~spike:false
      done;
      for _ = n_strong + 1 to n_docs do
        add ~strong:false ~spike:false
      done
  | `Uniform ->
      for _ = 1 to n_docs do
        add ~strong:(Pj_util.Prng.float rng 1. < 0.008) ~spike:false
      done
  | `Impact_skewed ->
      for _ = 1 to n_docs do
        add
          ~strong:(Pj_util.Prng.float rng 1. < 0.008)
          ~spike:(Pj_util.Prng.float rng 1. < 0.05)
      done);
  corpus

let hit_key (h : Pj_engine.Searcher.hit) =
  (h.Pj_engine.Searcher.doc_id, h.Pj_engine.Searcher.score)

let run_layout ~repetitions ~n_docs ~name layout =
  let rng = Pj_util.Prng.create 2024 in
  let corpus = build_corpus ~n_docs ~layout rng in
  let index = Pj_index.Inverted_index.build corpus in
  let searcher = Pj_engine.Searcher.create index in
  (* [?k] boxed once here, so the row counts only what the search
     itself allocates. *)
  let k = Some Runs.k in
  let search () =
    Pj_engine.Searcher.search ?k searcher Runs.scoring Runs.query
  in
  (* Losslessness gate: the pruned traversal must reproduce the
     reference top-k bit for bit before any timing counts. *)
  if
    List.map hit_key (search ())
    <> List.map hit_key
         (Pj_reference.search ~k:Runs.k index Runs.scoring Runs.query)
  then
    failwith
      (Printf.sprintf "bench-topk (%s): blockmax differs from reference" name);
  (* Candidate generation in isolation: how many aligned candidates
     reach the scoring stage (counted through the [accept] hook, which
     sees every candidate before bounding or solving), out of every
     conjunctive candidate. The traversal never aligns the candidates it
     region-skips. *)
  let conjunctive =
    Array.length (Pj_engine.Searcher.candidates searcher Runs.query)
  in
  let aligned = ref 0 in
  ignore
    (Pj_engine.Searcher.search_fragment ~k:Runs.k
       ~accept:(fun _ ->
         incr aligned;
         true)
       searcher Runs.scoring Runs.query);
  let aligned = !aligned in
  let aligned_ratio =
    float_of_int aligned /. float_of_int (Stdlib.max 1 conjunctive)
  in
  Runs.print_header
    (Printf.sprintf
       "bench-topk (%s): single-query latency, %d docs, aligned %d of %d \
        candidates (%.3f)"
       name n_docs aligned conjunctive aligned_ratio)
    [ "latency"; "alloc B" ];
  let blockmax =
    Runs.measure ~repetitions (fun () ->
        ignore (Sys.opaque_identity (search ())))
  in
  Runs.print_row "blockmax"
    [
      Runs.seconds blockmax.Runs.mean_s;
      Printf.sprintf "%.0f" blockmax.Runs.alloc_bytes;
    ];
  ( name,
    Runs.Row
      [
        ( "blockmax",
          Runs.Row
            [
              ("mean_s", Runs.Num (9, blockmax.Runs.mean_s));
              ("alloc_bytes", Runs.Num (0, blockmax.Runs.alloc_bytes));
            ] );
        ("candidates", Runs.Int conjunctive);
        ("aligned", Runs.Int aligned);
        ("aligned_ratio", Runs.Num (4, aligned_ratio));
      ] )

(* --- per-solve row ------------------------------------------------------ *)

(* A fourth term over filler tokens ("zza", "zzb" are two of the 400
   filler words), so the solve row also sees 4-term problems. *)
let t4 = Pj_matching.Matcher.of_table ~name:"t4" [ ("zza", 0.6); ("zzb", 0.3) ]

let solve_queries =
  let m = Runs.query.Pj_matching.Query.matchers in
  List.map
    (fun ms -> Pj_matching.Query.make "solve" ms)
    [ [ m.(0); m.(1) ]; [ m.(0); m.(1); m.(2) ]; [ m.(0); m.(1); m.(2); t4 ] ]

(* Up to [per_query] candidates of each query, spread over its
   candidate list, as match-list problems. *)
let solve_problems index ~per_query =
  let searcher = Pj_engine.Searcher.create index in
  List.concat_map
    (fun q ->
      let c = Pj_engine.Searcher.candidates searcher q in
      let step = Stdlib.max 1 (Array.length c / per_query) in
      List.filter_map
        (fun i ->
          if i mod step = 0 && i / step < per_query then
            Some (Pj_matching.Match_builder.from_index index ~doc_id:c.(i) q)
          else None)
        (List.init (Array.length c) Fun.id))
    solve_queries
  |> Array.of_list

(* The median of [rounds] timed passes over every problem, and the
   bytes one pass allocates, per solve. *)
let time_solves ~rounds scoring problems =
  let pass () =
    Array.iter
      (fun p ->
        ignore
          (Sys.opaque_identity (Pj_core.Best_join.solve ~dedup:true scoring p)))
      problems
  in
  pass ();
  let times =
    Array.init rounds (fun _ -> snd (Pj_util.Timing.time pass))
  in
  Array.sort compare times;
  let n = float_of_int (Array.length problems) in
  (times.(rounds / 2) *. 1e9 /. n, Runs.allocated_bytes pass /. n)

let run_solves ~quick index =
  let problems = solve_problems index ~per_query:(if quick then 100 else 300) in
  let rounds = if quick then 9 else 21 in
  let terms = Array.map Array.length problems in
  Runs.print_header
    (Printf.sprintf
       "bench-topk (solve): one Best_join.solve ~dedup:true, %d problems of \
        %d-%d terms"
       (Array.length problems)
       (Array.fold_left Stdlib.min max_int terms)
       (Array.fold_left Stdlib.max 0 terms))
    [ "ns/solve"; "B/solve" ];
  let rows =
    List.map
      (fun (name, scoring) ->
        let ns, bytes = time_solves ~rounds scoring problems in
        Runs.print_row
          (Pj_core.Scoring.name scoring)
          [ Printf.sprintf "%.0f" ns; Printf.sprintf "%.0f" bytes ];
        ( name,
          Runs.Row
            [
              ("ns_per_solve", Runs.Num (1, ns));
              ("bytes_per_solve", Runs.Num (1, bytes));
            ] ))
      [
        ("win_exponential", Pj_core.Scoring.Win (Pj_core.Scoring.win_exponential ~alpha:0.1));
        ("med_exponential", Pj_core.Scoring.Med (Pj_core.Scoring.med_exponential ~alpha:0.1));
        ("max_sum", Pj_core.Scoring.Max (Pj_core.Scoring.max_sum ~alpha:0.1));
      ]
  in
  Runs.Obj
    [ ("problems", Runs.Int (Array.length problems)); ("families", Runs.Obj rows) ]

let run ~quick ~repetitions =
  let n_docs = if quick then 2000 else 10_000 in
  (* Single queries are sub-millisecond: scale the repetitions up. *)
  let repetitions = repetitions * 20 in
  let layouts =
    List.map
      (fun (name, layout) -> run_layout ~repetitions ~n_docs ~name layout)
      [
        ("uniform", `Uniform);
        ("quality_ordered", `Quality_ordered);
        ("impact_skewed", `Impact_skewed);
      ]
  in
  let solves =
    run_solves ~quick
      (Pj_index.Inverted_index.build
         (build_corpus ~n_docs ~layout:`Uniform (Pj_util.Prng.create 2024)))
  in
  Runs.write_json "topk"
    (Runs.Obj
       [
         ("n_docs", Runs.Int n_docs);
         ("k", Runs.Int Runs.k);
         ("layouts", Runs.Obj layouts);
         ("solve", solves);
       ])
