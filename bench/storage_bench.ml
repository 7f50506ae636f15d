(* bench-storage: what the block-compressed mmap-backed v4 format buys
   and what it costs. Per corpus scale (2k and 100k synthetic docs;
   --quick shrinks both):

   - on-disk footprint: the v4 file and its postings section vs the
     postings' in-memory array footprint — the compression ratio the
     format exists for.
   - open time: [Mapped_index.open_file] reads one fixed trailer plus
     the vocabulary, so opening is O(1) in documents and postings —
     averaged over repeated opens, reported in milliseconds.
   - RSS delta across open + a query burst: the mapped index faults in
     only the pages it touches; the in-heap build pays for everything.
   - query latency (p50/p99) for the same query stream against the
     in-memory index and the mapped one — the tax, paid per posting
     block decoded, that the footprint and open-time wins cost.

   A sanity assertion checks the mapped index returns structurally
   identical hits to the in-memory index before any timing is trusted.
   Results land in BENCH_storage.json. *)

let gen_doc rng ~strong =
  let len = 40 + Pj_util.Prng.int rng 80 in
  let tokens =
    Array.init len (fun _ -> Pj_workload.Textgen.random_filler rng)
  in
  let plant form p =
    if Pj_util.Prng.float rng 1. < p then begin
      let n = 1 + Pj_util.Prng.int rng 3 in
      for _ = 1 to n do
        tokens.(Pj_util.Prng.int rng len) <- form
      done
    end
  in
  plant "alfa" 0.9;
  plant "brav" 0.85;
  plant "charli" 0.8;
  if strong then begin
    let pos = Pj_util.Prng.int rng (len - 3) in
    tokens.(pos) <- "alpha";
    tokens.(pos + 1) <- "bravo";
    tokens.(pos + 2) <- "charlie"
  end;
  tokens

let rss_kb () =
  (* VmRSS from /proc/self/status; 0 when unavailable (non-Linux). *)
  try
    let ic = open_in "/proc/self/status" in
    let rec scan () =
      match input_line ic with
      | line ->
          if String.length line > 6 && String.sub line 0 6 = "VmRSS:" then begin
            close_in ic;
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
              (fun kb -> kb)
          end
          else scan ()
      | exception End_of_file ->
          close_in ic;
          0
    in
    scan ()
  with Sys_error _ -> 0

let percentile_ms latencies p =
  1000. *. Pj_util.Stats.percentile latencies p

let search_searcher sr =
  Pj_engine.Searcher.search ~k:Ingest_bench.k sr Ingest_bench.scoring
    Ingest_bench.query

let observe sr =
  let t0 = Pj_util.Timing.monotonic_now () in
  ignore (search_searcher sr);
  Pj_util.Timing.monotonic_now () -. t0

type scale_result = {
  sc_docs : int;
  sc_v4_bytes : int;
  sc_postings_bytes : int;
  sc_mem_postings_bytes : int;
  sc_open_ms : float;
  sc_rss_mmap_kb : int;
  sc_rss_mem_kb : int;
  sc_mem_p50 : float;
  sc_mem_p99 : float;
  sc_mmap_p50 : float;
  sc_mmap_p99 : float;
}

let run_scale ~n_docs ~searches =
  let rng = Pj_util.Prng.create 1009 in
  let corpus = Pj_index.Corpus.create () in
  for i = 0 to n_docs - 1 do
    ignore (Pj_index.Corpus.add_tokens corpus (gen_doc rng ~strong:(i mod 25 = 0)))
  done;
  let t0 = Pj_util.Timing.monotonic_now () in
  let idx = Pj_index.Inverted_index.build corpus in
  let build_s = Pj_util.Timing.monotonic_now () -. t0 in
  let v4_path = Filename.temp_file "pj_storage_bench" ".pjx4" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove v4_path with Sys_error _ -> ())
    (fun () ->
      Pj_ondisk.Writer.write idx v4_path;
      let v4_bytes = (Unix.stat v4_path).Unix.st_size in
      (* --- open time: repeated full opens, averaged ------------------ *)
      let opens = 100 in
      let t0 = Pj_util.Timing.monotonic_now () in
      for _ = 1 to opens - 1 do
        ignore (Pj_ondisk.Mapped_index.open_file v4_path)
      done;
      let rss0 = rss_kb () in
      let mapped = Pj_ondisk.Mapped_index.open_file v4_path in
      let open_ms =
        1000. *. (Pj_util.Timing.monotonic_now () -. t0) /. float_of_int opens
      in
      let info = Pj_ondisk.Mapped_index.info mapped in
      let mmap_searcher =
        Pj_engine.Searcher.create (Pj_ondisk.Mapped_index.index mapped)
      in
      (* --- sanity: identical hits before timing anything ------------- *)
      let mem_searcher = Pj_engine.Searcher.create idx in
      assert (search_searcher mmap_searcher = search_searcher mem_searcher);
      (* --- latency (mmap measured first so its RSS delta reflects the
             pages the query stream faults in, not heap reuse) --------- *)
      ignore (observe mmap_searcher);
      let mmap_lat = Array.init searches (fun _ -> observe mmap_searcher) in
      let rss_mmap = rss_kb () - rss0 in
      let rss1 = rss_kb () in
      ignore (observe mem_searcher);
      let mem_lat = Array.init searches (fun _ -> observe mem_searcher) in
      let rss_mem = rss_kb () - rss1 in
      Runs.print_header
        (Printf.sprintf "bench-storage: %d docs (index build %.2f s)" n_docs
           build_s)
        [ "v4 file"; "postings"; "in-mem"; "open" ]
      ;
      Runs.print_row "footprint"
        [
          Printf.sprintf "%d B" v4_bytes;
          Printf.sprintf "%d B" info.Pj_ondisk.Mapped_index.postings_bytes;
          Printf.sprintf "%d B" info.Pj_ondisk.Mapped_index.mem_postings_bytes;
          Printf.sprintf "%.3f ms" open_ms;
        ];
      Runs.print_header "bench-storage: search latency"
        [ "p50"; "p99"; "rss delta" ];
      Runs.print_row "in-memory"
        [
          Printf.sprintf "%.3f ms" (percentile_ms mem_lat 50.);
          Printf.sprintf "%.3f ms" (percentile_ms mem_lat 99.);
          Printf.sprintf "%d kB" rss_mem;
        ];
      Runs.print_row "mmap"
        [
          Printf.sprintf "%.3f ms" (percentile_ms mmap_lat 50.);
          Printf.sprintf "%.3f ms" (percentile_ms mmap_lat 99.);
          Printf.sprintf "%d kB" rss_mmap;
        ];
      {
        sc_docs = n_docs;
        sc_v4_bytes = v4_bytes;
        sc_postings_bytes = info.Pj_ondisk.Mapped_index.postings_bytes;
        sc_mem_postings_bytes =
          info.Pj_ondisk.Mapped_index.mem_postings_bytes;
        sc_open_ms = open_ms;
        sc_rss_mmap_kb = rss_mmap;
        sc_rss_mem_kb = rss_mem;
        sc_mem_p50 = percentile_ms mem_lat 50.;
        sc_mem_p99 = percentile_ms mem_lat 99.;
        sc_mmap_p50 = percentile_ms mmap_lat 50.;
        sc_mmap_p99 = percentile_ms mmap_lat 99.;
      })

let json_of_scale r =
  Printf.sprintf
    "    {\n\
    \      \"docs\": %d,\n\
    \      \"v4_file_bytes\": %d,\n\
    \      \"v4_postings_bytes\": %d,\n\
    \      \"mem_postings_bytes\": %d,\n\
    \      \"postings_mem_over_disk\": %.3f,\n\
    \      \"open_ms\": %.6f,\n\
    \      \"rss_delta_mmap_kb\": %d,\n\
    \      \"rss_delta_mem_kb\": %d,\n\
    \      \"mem_p50_ms\": %.6f,\n\
    \      \"mem_p99_ms\": %.6f,\n\
    \      \"mmap_p50_ms\": %.6f,\n\
    \      \"mmap_p99_ms\": %.6f,\n\
    \      \"mmap_p99_over_mem_p99\": %.3f\n\
    \    }"
    r.sc_docs r.sc_v4_bytes r.sc_postings_bytes r.sc_mem_postings_bytes
    (float_of_int r.sc_mem_postings_bytes /. float_of_int r.sc_postings_bytes)
    r.sc_open_ms r.sc_rss_mmap_kb r.sc_rss_mem_kb r.sc_mem_p50 r.sc_mem_p99
    r.sc_mmap_p50 r.sc_mmap_p99
    (r.sc_mmap_p99 /. r.sc_mem_p99)

let run ~quick ~repetitions =
  ignore repetitions;
  let scales = if quick then [ (400, 100) ] else [ (2000, 500); (100_000, 200) ] in
  let results =
    List.map (fun (n_docs, searches) -> run_scale ~n_docs ~searches) scales
  in
  let path = "BENCH_storage.json" in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"scales\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" (List.map json_of_scale results));
  close_out oc;
  Printf.printf "[bench-storage] wrote %s\n" path
