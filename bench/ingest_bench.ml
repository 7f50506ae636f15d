(* bench-ingest: what live ingestion costs, and what it costs the
   readers. Three numbers matter:

   - ingest throughput (docs/s through [Live_index.add], auto-flush
     included): the write path's budget. Each add appends to the
     incremental postings builder — O(document tokens) — so
     throughput is flat in both [memtable_capacity] and corpus size;
     the flush cost amortizes over the capacity.
   - search latency under concurrent ingest (p50/p99): a second
     domain streams adds (flushing and merging as it goes) while the
     measuring domain searches. The writer is paced at the four-digit
     target rate (1000 docs/s) rather than flat out: the operational
     question is what readers pay while the index sustains its target
     ingest rate — an unpaced writer on a small box measures CPU
     time-slicing, not the engine (and the pre-incremental write path
     could not reach this rate at all). Documents arrive in small
     [add_batch] groups, the shape the server's group-commit ACK path
     delivers. Since queries read one
     immutable snapshot per call and never take the writer lock, the
     gap against the idle column bounds the real cost of snapshot
     churn (cache dilution, allocator pressure, merge work) rather
     than lock contention.
   - search latency over the quiesced index (p50/p99): the read path
     with no writers. Measured *after* the concurrent phase, over the
     final corpus, so the idle/ingest comparison isolates write churn
     instead of conflating it with corpus growth (the during-ingest
     searches see every document the idle ones do, and fewer early
     on).

   A final sanity assertion checks the quiesced live index returns
   structurally identical hits to a from-scratch build over the same
   surviving documents. Results land in BENCH_ingest.json. *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun name -> rm_rf (Filename.concat path name))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* The first [n] documents of [rest] (in order) and the others. *)
let rec take n acc rest =
  if n = 0 then (List.rev acc, rest)
  else
    match rest with
    | [] -> (List.rev acc, [])
    | d :: tl -> take (n - 1) (d :: acc) tl

(* One durability arm: ingest [docs] into a dir-backed index in
   50-doc [add_batch] groups — the server's group-commit shape, so
   WAL-on pays exactly one fsync per batch — then flush. Returns
   (elapsed seconds, wal fsyncs). *)
let durability_run ~wal docs =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pj-bench-wal-%d-%b" (Unix.getpid ()) wal)
  in
  rm_rf dir;
  let config =
    {
      Pj_live.Live_index.default_config with
      Pj_live.Live_index.memtable_capacity = 512;
      merge_threshold = 4;
      background_merge = true;
      wal;
      fsync_policy = Pj_live.Wal.Per_batch;
    }
  in
  let live = Pj_live.Live_index.open_dir ~config dir in
  let t0 = Pj_util.Timing.monotonic_now () in
  let rec go rest =
    match rest with
    | [] -> ()
    | _ ->
        let chunk, rest = take 50 [] rest in
        ignore (Pj_live.Live_index.add_batch live chunk);
        go rest
  in
  go docs;
  ignore (Pj_live.Live_index.flush live);
  let dt = Pj_util.Timing.monotonic_now () -. t0 in
  let stats = Pj_live.Live_index.stats live in
  Pj_live.Live_index.close live;
  rm_rf dir;
  (dt, stats.Pj_live.Live_index.wal_fsyncs)

let search_once live =
  Pj_live.Live_index.search ~k:Runs.k live Runs.scoring Runs.query

let run ~quick =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 22 };
  let n_docs = if quick then 400 else 10_000 in
  let n_concurrent = if quick then 400 else 10_000 in
  let idle_searches = if quick then 200 else 1000 in
  let rng = Pj_util.Prng.create 77 in
  let docs = Runs.gen_docs rng n_docs in
  (* Capacity 64 dated from the rebuild-per-add era, when a large
     memtable made every add slower; with O(doc) appends a deeper
     memtable just means fewer seals and less background merge churn,
     so the bench measures a production-shaped setting. At --quick
     scale 400 documents would never fill it: each phase would seal one
     segment at its final flush and nothing would merge, so quick runs
     use 64, which seals 7 segments a phase and merges. *)
  let config =
    {
      Pj_live.Live_index.default_config with
      Pj_live.Live_index.memtable_capacity = (if quick then 64 else 512);
      merge_threshold = 4;
      background_merge = true;
    }
  in
  let live = Pj_live.Live_index.create ~config () in
  (* --- ingest throughput (one writer, background merger running) --- *)
  let t0 = Pj_util.Timing.monotonic_now () in
  List.iter (fun doc -> ignore (Pj_live.Live_index.add live doc)) docs;
  ignore (Pj_live.Live_index.flush live);
  let ingest_s = Pj_util.Timing.monotonic_now () -. t0 in
  let docs_per_s = float_of_int n_docs /. ingest_s in
  Pj_live.Live_index.quiesce live;
  Runs.print_header
    (Printf.sprintf "bench-ingest: %d docs, memtable %d" n_docs
       config.Pj_live.Live_index.memtable_capacity)
    [ "total"; "docs/s" ];
  Runs.print_row "ingest"
    [ Runs.seconds ingest_s; Printf.sprintf "%.0f" docs_per_s ];
  (* --- sanity: quiesced live results == from-scratch build --------- *)
  let scratch = Pj_index.Corpus.create () in
  let scratch_vocab = Pj_index.Corpus.vocab scratch in
  List.iter
    (fun doc -> Array.iter (fun w -> ignore (Pj_text.Vocab.intern scratch_vocab w)) doc)
    docs;
  List.iter (fun doc -> ignore (Pj_index.Corpus.add_tokens scratch doc)) docs;
  let scratch_searcher =
    Pj_engine.Searcher.create (Pj_index.Inverted_index.build scratch)
  in
  let live_hits = search_once live in
  let scratch_hits =
    Pj_engine.Searcher.search ~k:Runs.k scratch_searcher Runs.scoring
      Runs.query
  in
  assert (live_hits = scratch_hits);
  let observe () = snd (Pj_util.Timing.time (fun () -> search_once live)) in
  ignore (observe ());
  (* --- search latency, under concurrent ingest --------------------- *)
  let stream = Runs.gen_docs rng n_concurrent in
  let stream_rate = 1000. (* docs/s — the issue's four-digit target *) in
  let ingesting = Atomic.make true in
  (* The stream arrives in small batches through [add_batch] — the
     arrival shape the server's group-commit ACK path produces — rather
     than one wakeup per document: per-doc pacing costs ~2000 context
     switches/s against the measuring reader, which swamps the engine
     cost being measured. The average rate is the same. *)
  let batch_docs = 50 in
  let writer =
    Domain.spawn (fun () ->
        let t0 = Pj_util.Timing.monotonic_now () in
        let rec go i rest =
          match rest with
          | [] -> ()
          | _ ->
              let due = t0 +. (float_of_int i /. stream_rate) in
              let now = Pj_util.Timing.monotonic_now () in
              if due > now then Unix.sleepf (due -. now);
              let chunk, rest = take batch_docs [] rest in
              ignore (Pj_live.Live_index.add_batch live chunk);
              go (i + List.length chunk) rest
        in
        go 0 stream;
        ignore (Pj_live.Live_index.flush live);
        Atomic.set ingesting false)
  in
  let during = ref [] in
  while Atomic.get ingesting do
    during := observe () :: !during
  done;
  Domain.join writer;
  (* On a fast box the stream can drain before the first poll. *)
  if !during = [] then during := [ observe () ];
  let during = Array.of_list !during in
  (* --- search latency, idle (same final corpus, no writers) -------- *)
  Pj_live.Live_index.quiesce live;
  ignore (observe ());
  let idle = Array.init idle_searches (fun _ -> observe ()) in
  let stats = Pj_live.Live_index.stats live in
  let idle_p50 = Runs.percentile_ms idle 50.
  and idle_p99 = Runs.percentile_ms idle 99.
  and during_p50 = Runs.percentile_ms during 50.
  and during_p99 = Runs.percentile_ms during 99. in
  Runs.print_header "bench-ingest: search latency" [ "p50"; "p99"; "n" ];
  Runs.print_row "idle"
    [
      Printf.sprintf "%.3f ms" idle_p50;
      Printf.sprintf "%.3f ms" idle_p99;
      string_of_int (Array.length idle);
    ];
  Runs.print_row
    (Printf.sprintf "ingest @ %.0f docs/s" stream_rate)
    [
      Printf.sprintf "%.3f ms" during_p50;
      Printf.sprintf "%.3f ms" during_p99;
      string_of_int (Array.length during);
    ];
  Pj_live.Live_index.close live;
  (* --- durability: what the write-ahead log costs ------------------- *)
  let n_dur = if quick then 400 else 4_000 in
  let dur_docs = Runs.gen_docs rng n_dur in
  (* One run per arm is noise, not a result: the arms run interleaved,
     alternating which goes first, and each pair yields one ratio. The
     median ratio is reported with its min and max. *)
  let pairs = 5 in
  let base_s = Array.make pairs 0. and wal_s = Array.make pairs 0. in
  let wal_fsyncs = ref 0 in
  let wal_arm i =
    let s, fsyncs = durability_run ~wal:true dur_docs in
    wal_s.(i) <- s;
    wal_fsyncs := fsyncs
  in
  let base_arm i = base_s.(i) <- fst (durability_run ~wal:false dur_docs) in
  for i = 0 to pairs - 1 do
    if i mod 2 = 0 then (base_arm i; wal_arm i) else (wal_arm i; base_arm i)
  done;
  let wal_fsyncs = !wal_fsyncs in
  let rate s = float_of_int n_dur /. s in
  let ratios = Array.init pairs (fun i -> base_s.(i) /. wal_s.(i)) in
  let base_rate = rate (Pj_util.Stats.median base_s) in
  let wal_rate = rate (Pj_util.Stats.median wal_s) in
  let wal_ratio = Pj_util.Stats.median ratios in
  let ratio_min = Array.fold_left Float.min infinity ratios in
  let ratio_max = Array.fold_left Float.max neg_infinity ratios in
  Runs.print_header
    (Printf.sprintf
       "bench-ingest: durability, %d docs, 50-doc batches, median of %d \
        interleaved pairs"
       n_dur pairs)
    [ "total"; "docs/s"; "fsyncs" ];
  Runs.print_row "wal off"
    [
      Runs.seconds (Pj_util.Stats.median base_s);
      Printf.sprintf "%.0f" base_rate;
      "0";
    ];
  Runs.print_row "wal per-batch"
    [
      Runs.seconds (Pj_util.Stats.median wal_s);
      Printf.sprintf "%.0f" wal_rate;
      string_of_int wal_fsyncs;
    ];
  Printf.printf
    "[bench-ingest] wal-on throughput = %.0f%% of wal-off (median of %d \
     pairs, min %.0f%%, max %.0f%%)\n"
    (100. *. wal_ratio) pairs (100. *. ratio_min) (100. *. ratio_max);
  Runs.write_json "ingest"
    (Runs.Obj
       [
         ("docs", Runs.Int n_docs);
         ( "memtable_capacity",
           Runs.Int config.Pj_live.Live_index.memtable_capacity );
         ("ingest_s", Runs.Num (6, ingest_s));
         ("ingest_docs_per_s", Runs.Num (1, docs_per_s));
         ("ingest_stream_rate_docs_per_s", Runs.Num (0, stream_rate));
         ("search_idle_p50_ms", Runs.Num (6, idle_p50));
         ("search_idle_p99_ms", Runs.Num (6, idle_p99));
         ("search_ingest_p50_ms", Runs.Num (6, during_p50));
         ("search_ingest_p99_ms", Runs.Num (6, during_p99));
         ("searches_during_ingest", Runs.Int (Array.length during));
         ("final_generation", Runs.Int stats.Pj_live.Live_index.generation);
         ("final_segments", Runs.Int stats.Pj_live.Live_index.segments);
         ("merges", Runs.Int stats.Pj_live.Live_index.merges);
         ("durability_docs", Runs.Int n_dur);
         ("ingest_wal_off_docs_per_s", Runs.Num (1, base_rate));
         ("ingest_wal_docs_per_s", Runs.Num (1, wal_rate));
         ("wal_fsyncs", Runs.Int wal_fsyncs);
         ("wal_throughput_ratio", Runs.Num (3, wal_ratio));
         ("wal_throughput_ratio_min", Runs.Num (3, ratio_min));
         ("wal_throughput_ratio_max", Runs.Num (3, ratio_max));
         ("wal_throughput_pairs", Runs.Int pairs);
       ])
