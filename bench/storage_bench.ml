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
   - decode cost beneath that tax: a full cursor walk over the query's
     forms in ns per posting, and a seek at fixed doc strides (4, 16,
     64) in ns per seek, on both indexes — the per-posting price of
     the codec against the heap array cursor.

   A sanity assertion checks the mapped index returns structurally
   identical hits to the in-memory index before any timing is trusted.
   Results land in BENCH_storage.json. *)

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

let search_searcher sr =
  Pj_engine.Searcher.search ~k:Runs.k sr Runs.scoring Runs.query

let observe sr = snd (Pj_util.Timing.time (fun () -> search_searcher sr))

(* --- decode: cursor walk and seek cost -------------------------------- *)

(* The query's six forms; the three dense degraded forms carry most of
   the postings a search decodes. *)
let decode_words = [ "alpha"; "bravo"; "charlie"; "alfa"; "brav"; "charli" ]
let seek_strides = [ 4; 16; 64 ]

(* One pass over fresh cursors of every form: [step c] moves the cursor
   and counts the units (postings walked, seeks made). *)
let cursor_pass idx step =
  List.fold_left
    (fun units w ->
      let c = Pj_index.Inverted_index.cursor_of_word idx w in
      units + step c)
    0 decode_words

let walk c =
  let n = ref 0 in
  while Pj_index.Posting_list.current_doc c >= 0 do
    incr n;
    Pj_index.Posting_list.next c
  done;
  !n

let seek_by stride c =
  let n = ref 0 and target = ref 0 in
  while Pj_index.Posting_list.current_doc c >= 0 do
    target := !target + stride;
    Pj_index.Posting_list.seek c !target;
    incr n
  done;
  !n

(* Median over [reps] timed passes of ns per unit. *)
let ns_per_unit ~reps idx step =
  ignore (cursor_pass idx step);
  Pj_util.Stats.median
    (Array.init reps (fun _ ->
         let t0 = Pj_util.Timing.monotonic_now () in
         let units = cursor_pass idx step in
         1e9 *. (Pj_util.Timing.monotonic_now () -. t0) /. float_of_int units))

type decode_result = {
  walk_ns : float;  (* per posting *)
  seek_ns : (int * float) list;  (* per seek, by doc stride *)
}

let decode_costs ~reps idx =
  {
    walk_ns = ns_per_unit ~reps idx walk;
    seek_ns =
      List.map (fun s -> (s, ns_per_unit ~reps idx (seek_by s))) seek_strides;
  }

let run_scale ~n_docs ~searches ~decode_reps =
  let rng = Pj_util.Prng.create 1009 in
  let corpus = Pj_index.Corpus.create () in
  for i = 0 to n_docs - 1 do
    ignore
      (Pj_index.Corpus.add_tokens corpus
         (Runs.gen_doc rng ~min_len:40 ~len_span:80 ~strong:(i mod 25 = 0)
            ~spike:false))
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
      let postings_bytes = info.Pj_ondisk.Mapped_index.postings_bytes
      and mem_postings_bytes = info.Pj_ondisk.Mapped_index.mem_postings_bytes in
      let mmap_index = Pj_ondisk.Mapped_index.index mapped in
      let mmap_searcher = Pj_engine.Searcher.create mmap_index in
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
      let mmap_decode = decode_costs ~reps:decode_reps mmap_index in
      let mem_decode = decode_costs ~reps:decode_reps idx in
      Runs.print_header
        (Printf.sprintf "bench-storage: %d docs (index build %.2f s)" n_docs
           build_s)
        [ "v4 file"; "postings"; "in-mem"; "open" ];
      Runs.print_row "footprint"
        [
          Printf.sprintf "%d B" v4_bytes;
          Printf.sprintf "%d B" postings_bytes;
          Printf.sprintf "%d B" mem_postings_bytes;
          Printf.sprintf "%.3f ms" open_ms;
        ];
      let mem_p50 = Runs.percentile_ms mem_lat 50.
      and mem_p99 = Runs.percentile_ms mem_lat 99.
      and mmap_p50 = Runs.percentile_ms mmap_lat 50.
      and mmap_p99 = Runs.percentile_ms mmap_lat 99. in
      Runs.print_header "bench-storage: search latency"
        [ "p50"; "p99"; "rss delta" ];
      Runs.print_row "in-memory"
        [
          Printf.sprintf "%.3f ms" mem_p50;
          Printf.sprintf "%.3f ms" mem_p99;
          Printf.sprintf "%d kB" rss_mem;
        ];
      Runs.print_row "mmap"
        [
          Printf.sprintf "%.3f ms" mmap_p50;
          Printf.sprintf "%.3f ms" mmap_p99;
          Printf.sprintf "%d kB" rss_mmap;
        ];
      Runs.print_header "bench-storage: cursor decode (ns)"
        ("walk/post"
        :: List.map (fun s -> Printf.sprintf "seek/%d" s) seek_strides);
      List.iter
        (fun (label, d) ->
          Runs.print_row label
            (Printf.sprintf "%.1f" d.walk_ns
            :: List.map (fun (_, ns) -> Printf.sprintf "%.1f" ns) d.seek_ns))
        [ ("in-memory", mem_decode); ("mmap", mmap_decode) ];
      let seeks side d =
        List.map
          (fun (stride, ns) ->
            (Printf.sprintf "%s_seek_ns_stride%d" side stride, Runs.Num (2, ns)))
          d.seek_ns
      in
      Runs.Obj
        ([
           ("docs", Runs.Int n_docs);
           ("v4_file_bytes", Runs.Int v4_bytes);
           ("v4_postings_bytes", Runs.Int postings_bytes);
           ("mem_postings_bytes", Runs.Int mem_postings_bytes);
           ( "postings_mem_over_disk",
             Runs.Num
               (3, float_of_int mem_postings_bytes /. float_of_int postings_bytes)
           );
           ("open_ms", Runs.Num (6, open_ms));
           ("rss_delta_mmap_kb", Runs.Int rss_mmap);
           ("rss_delta_mem_kb", Runs.Int rss_mem);
           ("mem_p50_ms", Runs.Num (6, mem_p50));
           ("mem_p99_ms", Runs.Num (6, mem_p99));
           ("mmap_p50_ms", Runs.Num (6, mmap_p50));
           ("mmap_p99_ms", Runs.Num (6, mmap_p99));
           ("mmap_p99_over_mem_p99", Runs.Num (3, mmap_p99 /. mem_p99));
           ("mmap_walk_ns_per_posting", Runs.Num (2, mmap_decode.walk_ns));
           ("mem_walk_ns_per_posting", Runs.Num (2, mem_decode.walk_ns));
         ]
        @ seeks "mmap" mmap_decode @ seeks "mem" mem_decode))

let run ~quick =
  let scales =
    if quick then [ (400, 100, 5) ] else [ (2000, 500, 21); (100_000, 200, 7) ]
  in
  Runs.write_json "storage"
    (Runs.Obj
       [
         ( "scales",
           Runs.Arr
             (List.map
                (fun (n_docs, searches, decode_reps) ->
                  run_scale ~n_docs ~searches ~decode_reps)
                scales) );
       ])
