(* proxjoin: command-line interface to the weighted proximity best-join
   library.

     proxjoin demo
     proxjoin search  --term wordnet:pc-maker --term wordnet:sports FILE
     proxjoin extract --term wordnet:conference --term date --term place FILE
     proxjoin synth   --terms 4 --matches 30 --lambda 2.0

   FILE holds documents separated by blank lines; term specs follow the
   grammar of Pj_matching.Query_parser (wordnet:X, stem:X, exact:X,
   date, place, city, country, year, and |-disjunctions). *)

(* The first [n] bytes of a file (all of a shorter one); "" for a
   pipe, which has no length and whose bytes a peek would consume. *)
let sniff path n =
  In_channel.with_open_bin path (fun ic ->
      match in_channel_length ic with
      | len -> really_input_string ic (Stdlib.min n len)
      | exception Sys_error _ -> "")

let sniff_magic path = sniff path 4

(* The magics of proxjoin's own binary files, with what each is and
   what to do with it instead: read as text, any of them would index
   its bytes as garbage documents. *)
let binary_formats =
  [
    ("PJX4", "v4 index", "serve it with serve --index");
    ( "PJIX",
      "legacy v1-v3 corpus",
      "v1-v3 files are no longer read: rebuild the index from its \
       documents, or compact it to v4 with an earlier release that still \
       reads v1-v3" );
    ( "PJSG",
      "legacy live segment",
      "pre-v4 segments are no longer read: rebuild the live directory \
       from its documents" );
    ("PJMF", "live index manifest", "serve its directory with --live-dir");
    ("PJWL", "live index write-ahead log", "serve its directory with --live-dir");
  ]

let read_documents path =
  let head = sniff path 5 in
  let magic = String.sub head 0 (Stdlib.min 4 (String.length head)) in
  (* A PJX4 file of another format version is no index this build can
     serve either, so [serve --index] is the wrong advice for it. *)
  (if magic = Pj_ondisk.File_format.magic && String.length head = 5 then
     let v = Char.code head.[4] in
     if v <> Pj_ondisk.File_format.version then
       failwith
         (Printf.sprintf "%s is not documents: %s" path
            (Pj_ondisk.File_format.version_error v)));
  List.iter
    (fun (m, what, advice) ->
      if m = magic then
        failwith
          (Printf.sprintf "%s is a proxjoin %s file (%s), not documents; %s"
             path what m advice))
    binary_formats;
  let ic = open_in path in
  let docs = ref [] and current = Buffer.create 256 in
  let flush () =
    if Buffer.length current > 0 then begin
      docs := Buffer.contents current :: !docs;
      Buffer.clear current
    end
  in
  (try
     while true do
       let line = input_line ic in
       if String.trim line = "" then flush ()
       else begin
         Buffer.add_string current line;
         Buffer.add_char current ' '
       end
     done
   with End_of_file -> ());
  close_in ic;
  flush ();
  List.rev !docs

let scoring_of ~family ~alpha =
  match family with
  | "win" -> Pj_core.Scoring.Win (Pj_core.Scoring.win_exponential ~alpha)
  | "med" -> Pj_core.Scoring.Med (Pj_core.Scoring.med_exponential ~alpha)
  | "max" -> Pj_core.Scoring.Max (Pj_core.Scoring.max_sum ~alpha)
  | other -> failwith (Printf.sprintf "unknown scoring family %S" other)

let build_query graph terms =
  match Pj_matching.Query_parser.parse graph terms with
  | Ok q -> q
  | Error msg -> failwith msg

let pp_matchset vocab (r : Pj_core.Naive.result) =
  Array.to_list r.Pj_core.Naive.matchset
  |> List.map (fun m ->
         Printf.sprintf "%s@%d(%.2f)"
           (Pj_text.Vocab.word vocab m.Pj_core.Match0.payload)
           m.Pj_core.Match0.loc m.Pj_core.Match0.score)
  |> String.concat " "

(* --- search: rank documents by best matchset ------------------------- *)

let run_search file terms family alpha top_k =
  let graph = Pj_ontology.Mini_wordnet.create () in
  let query = build_query graph terms in
  let scoring = scoring_of ~family ~alpha in
  let corpus = Pj_index.Corpus.create () in
  List.iter
    (fun text -> ignore (Pj_index.Corpus.add_text corpus text))
    (read_documents file);
  let vocab = Pj_index.Corpus.vocab corpus in
  let problems =
    Array.map
      (fun (d, p) -> (d.Pj_text.Document.id, p))
      (Pj_matching.Match_builder.scan_corpus corpus query)
  in
  let ranked = Pj_workload.Ranker.rank scoring problems in
  Printf.printf "%d documents, scoring %s\n" (Array.length ranked)
    (Pj_core.Scoring.name scoring);
  Array.iteri
    (fun i r ->
      if i < top_k then begin
        match r.Pj_workload.Ranker.result with
        | Some res ->
            Printf.printf "#%d doc %d  score %.5f  %s\n" (i + 1)
              r.Pj_workload.Ranker.doc_id res.Pj_core.Naive.score
              (pp_matchset vocab res)
        | None -> ()
      end)
    ranked

(* --- extract: best matchset by location over each document ----------- *)

let run_extract file terms family alpha threshold =
  let graph = Pj_ontology.Mini_wordnet.create () in
  let query = build_query graph terms in
  let scoring = scoring_of ~family ~alpha in
  let corpus = Pj_index.Corpus.create () in
  List.iter
    (fun text -> ignore (Pj_index.Corpus.add_text corpus text))
    (read_documents file);
  let vocab = Pj_index.Corpus.vocab corpus in
  Pj_index.Corpus.iter
    (fun doc ->
      let problem = Pj_matching.Match_builder.scan vocab doc query in
      if not (Pj_core.Match_list.has_empty_list problem) then begin
        let entries = Pj_core.Best_join.by_location scoring problem in
        let entries =
          match threshold with
          | None -> entries
          | Some t -> Pj_core.By_location.filter_by_score t entries
        in
        List.iter
          (fun e ->
            Printf.printf "doc %d  anchor %4d  score %8.4f  {%s}\n"
              doc.Pj_text.Document.id e.Pj_core.By_location.anchor
              e.Pj_core.By_location.score
              (String.concat " "
                 (Array.to_list
                    (Array.map
                       (fun m ->
                         Printf.sprintf "%s@%d"
                           (Pj_text.Vocab.word vocab m.Pj_core.Match0.payload)
                           m.Pj_core.Match0.loc)
                       e.Pj_core.By_location.matchset))))
          entries
      end)
    corpus

(* --- isearch: index-driven engine search with snippets ---------------- *)

let run_isearch file terms family alpha top_k =
  let graph = Pj_ontology.Mini_wordnet.create () in
  let query = build_query graph terms in
  (* The index path matches expansion forms against indexed tokens, so
     the corpus is indexed over Porter stems and every matcher's
     expansions are stemmed to the same normalization. *)
  let query =
    {
      query with
      Pj_matching.Query.matchers =
        Array.map Pj_matching.Matcher.stem_expansions
          query.Pj_matching.Query.matchers;
    }
  in
  let scoring = scoring_of ~family ~alpha in
  let corpus = Pj_index.Corpus.of_stemmed_texts (read_documents file) in
  let vocab = Pj_index.Corpus.vocab corpus in
  let searcher =
    Pj_engine.Searcher.create (Pj_index.Inverted_index.build corpus)
  in
  let hits = Pj_engine.Searcher.search ~k:top_k searcher scoring query in
  Printf.printf "%d candidate documents, %d hits, scoring %s\n"
    (Array.length (Pj_engine.Searcher.candidates searcher query))
    (List.length hits)
    (Pj_core.Scoring.name scoring);
  List.iteri
    (fun i hit ->
      let doc = Pj_index.Corpus.document corpus hit.Pj_engine.Searcher.doc_id in
      Printf.printf "#%d doc %d  score %.5f\n   %s\n" (i + 1)
        hit.Pj_engine.Searcher.doc_id hit.Pj_engine.Searcher.score
        (Pj_engine.Snippet.render vocab doc hit.Pj_engine.Searcher.matchset))
    hits

(* --- synth: solve one synthetic instance ------------------------------ *)

let run_synth n_terms matches lambda zipf_s seed =
  let params =
    {
      Pj_workload.Synthetic.n_terms;
      total_matches = matches;
      lambda;
      zipf_s;
      doc_length = 1000;
    }
  in
  let rng = Pj_util.Prng.create seed in
  let p = Pj_workload.Synthetic.generate params rng in
  Printf.printf "terms %d, matches %d, duplicate frequency %.1f%%\n" n_terms
    matches
    (100. *. Pj_core.Match_list.duplicate_frequency p);
  Format.printf "%a@." Pj_core.Match_list.pp p;
  List.iter
    (fun scoring ->
      match Pj_core.Best_join.solve ~dedup:true scoring p with
      | Some r ->
          Format.printf "%-14s score %10.6f  %a@."
            (Pj_core.Scoring.name scoring)
            r.Pj_core.Naive.score Pj_core.Matchset.pp r.Pj_core.Naive.matchset
      | None -> Printf.printf "%s: no valid matchset\n" (Pj_core.Scoring.name scoring))
    [
      Pj_core.Scoring.Win (Pj_core.Scoring.win_exponential ~alpha:0.1);
      Pj_core.Scoring.Med (Pj_core.Scoring.med_exponential ~alpha:0.1);
      Pj_core.Scoring.Max (Pj_core.Scoring.max_sum ~alpha:0.1);
    ]

(* --- demo: the Figure 1 example --------------------------------------- *)

let run_demo () =
  let graph = Pj_ontology.Mini_wordnet.create () in
  let query =
    Pj_matching.Query.make "figure 1"
      [
        Pj_matching.Wordnet_matcher.create graph "pc-maker";
        Pj_matching.Wordnet_matcher.create graph "sports";
        Pj_matching.Wordnet_matcher.create graph "partnership";
      ]
  in
  let text =
    "As part of the new deal, Lenovo will become the official PC partner \
     of the NBA. The laptop-maker has a similar partnership with the \
     Olympic Games. Lenovo competes against Dell and Hewlett-Packard."
  in
  let vocab = Pj_text.Vocab.create () in
  let doc = Pj_text.Document.of_text vocab ~id:0 text in
  let problem = Pj_matching.Match_builder.scan vocab doc query in
  Printf.printf "query: {\"PC maker\", \"sports\", \"partnership\"}\n";
  List.iter
    (fun scoring ->
      match Pj_core.Best_join.solve ~dedup:true scoring problem with
      | Some r ->
          Printf.printf "%-14s %s\n"
            (Pj_core.Scoring.name scoring)
            (pp_matchset vocab r)
      | None -> ())
    [
      Pj_core.Scoring.Win (Pj_core.Scoring.win_exponential ~alpha:0.2);
      Pj_core.Scoring.Med (Pj_core.Scoring.med_exponential ~alpha:0.2);
      Pj_core.Scoring.Max (Pj_core.Scoring.max_sum ~alpha:0.2);
    ]

(* --- ask: factoid question answering over a document file ------------- *)

let run_ask file question k =
  let corpus = Pj_index.Corpus.create () in
  List.iter
    (fun text -> ignore (Pj_index.Corpus.add_text corpus text))
    (read_documents file);
  let answerer = Pj_qa.Answerer.create corpus in
  let analysis, query = Pj_qa.Answerer.question_of answerer question in
  Printf.printf "target type: %s, query terms: %s\n"
    (Pj_qa.Question.target_name analysis.Pj_qa.Question.target)
    (String.concat ", " (Array.to_list (Pj_matching.Query.term_names query)));
  match Pj_qa.Answerer.ask ~k answerer question with
  | [] -> Printf.printf "no answer found\n"
  | answers ->
      List.iteri
        (fun i a ->
          Printf.printf "A%d: %-15s (support %.2f, docs %s)\n" (i + 1)
            a.Pj_qa.Answerer.answer_word a.Pj_qa.Answerer.support
            (String.concat ","
               (List.map string_of_int a.Pj_qa.Answerer.documents)))
        answers

(* --- compact / inspect: the v4 mmap-servable on-disk format ------------ *)

let human_bytes n =
  let f = float_of_int n in
  if n >= 1 lsl 20 then Printf.sprintf "%.1f MiB" (f /. float_of_int (1 lsl 20))
  else if n >= 1 lsl 10 then
    Printf.sprintf "%.1f KiB" (f /. float_of_int (1 lsl 10))
  else Printf.sprintf "%d B" n

let run_inspect path deep =
  let t0 = Pj_util.Timing.monotonic_now () in
  let mapped = Pj_ondisk.Mapped_index.open_file path in
  let open_ms = 1000. *. (Pj_util.Timing.monotonic_now () -. t0) in
  Pj_ondisk.Mapped_index.verify mapped;
  if deep then Pj_ondisk.Mapped_index.check mapped;
  let info = Pj_ondisk.Mapped_index.info mapped in
  let vocab = Pj_ondisk.Mapped_index.vocab mapped in
  Printf.printf
    "%s: proxjoin PJX4 index, version %d (%s, CRC ok, opened in %.2f ms)\n"
    path info.Pj_ondisk.Mapped_index.version
    (if deep then "deep-checked" else "verified")
    open_ms;
  Printf.printf
    "  documents   %d in %d shard%s, %d tokens total\n"
    info.Pj_ondisk.Mapped_index.n_docs info.Pj_ondisk.Mapped_index.n_shards
    (if info.Pj_ondisk.Mapped_index.n_shards = 1 then "" else "s")
    info.Pj_ondisk.Mapped_index.total_tokens;
  Printf.printf "  vocabulary  %d terms\n" info.Pj_ondisk.Mapped_index.n_words;
  Printf.printf
    "  postings    %d in %d block%s (%.1f docs/block), %d positions\n"
    info.Pj_ondisk.Mapped_index.n_postings
    info.Pj_ondisk.Mapped_index.n_blocks
    (if info.Pj_ondisk.Mapped_index.n_blocks = 1 then "" else "s")
    (if info.Pj_ondisk.Mapped_index.n_blocks = 0 then 0.
     else
       float_of_int info.Pj_ondisk.Mapped_index.n_postings
       /. float_of_int info.Pj_ondisk.Mapped_index.n_blocks)
    info.Pj_ondisk.Mapped_index.n_positions;
  Printf.printf "  file        %s = vocab %s + docs %s + dict %s + postings %s\n"
    (human_bytes info.Pj_ondisk.Mapped_index.file_bytes)
    (human_bytes info.Pj_ondisk.Mapped_index.vocab_bytes)
    (human_bytes info.Pj_ondisk.Mapped_index.docs_bytes)
    (human_bytes info.Pj_ondisk.Mapped_index.dict_bytes)
    (human_bytes info.Pj_ondisk.Mapped_index.postings_bytes);
  if info.Pj_ondisk.Mapped_index.postings_bytes > 0 then
    Printf.printf
      "  compression postings %s on disk vs ~%s as in-memory arrays (%.1fx \
       smaller)\n"
      (human_bytes info.Pj_ondisk.Mapped_index.postings_bytes)
      (human_bytes info.Pj_ondisk.Mapped_index.mem_postings_bytes)
      (float_of_int info.Pj_ondisk.Mapped_index.mem_postings_bytes
      /. float_of_int info.Pj_ondisk.Mapped_index.postings_bytes);
  (* The heaviest terms: how many blocks their lists span. *)
  let heavy = ref [] in
  for tok = 0 to info.Pj_ondisk.Mapped_index.n_words - 1 do
    match Pj_ondisk.Mapped_index.term_reader mapped tok with
    | None -> ()
    | Some r -> heavy := (tok, r) :: !heavy
  done;
  let heavy =
    List.sort (fun (_, a) (_, b) -> compare b.Pj_ondisk.Codec.df a.Pj_ondisk.Codec.df) !heavy
  in
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  (match take 5 heavy with
  | [] -> ()
  | top ->
      Printf.printf "  heaviest terms (df, blocks, last doc):\n";
      List.iter
        (fun (tok, r) ->
          Printf.printf "    %-16s df %-8d blocks %-6d last doc %d\n"
            (Pj_text.Vocab.word vocab tok)
            r.Pj_ondisk.Codec.df
            (Pj_ondisk.Codec.n_blocks ~df:r.Pj_ondisk.Codec.df)
            (Pj_ondisk.Codec.last_doc r))
        top)

(* --- serve: hold the index hot behind a TCP protocol ------------------- *)

(* Compact a corpus source — raw blank-line-separated documents or an
   existing v4 file — into a fresh v4 file. Raw text is stemmed exactly
   as [serve]/[isearch] stem their corpora, so a compacted file answers
   the same queries, and is written as one shard. A v4 source keeps its
   persisted shard layout, so re-compacting a file reproduces its
   bytes. Any other proxjoin file is refused by [read_documents] before
   DST is touched. *)
let run_compact src dst =
  let t0 = Pj_util.Timing.monotonic_now () in
  let source, idx, counts =
    match sniff_magic src with
    | "PJX4" ->
        let mapped = Pj_ondisk.Mapped_index.open_file src in
        ( "v4 index",
          Pj_ondisk.Mapped_index.index mapped,
          Some (Pj_ondisk.Mapped_index.counts mapped) )
    | _ ->
        let corpus = Pj_index.Corpus.of_stemmed_texts (read_documents src) in
        ("documents", Pj_index.Inverted_index.build corpus, None)
  in
  Pj_ondisk.Writer.write ~fp_write:"ondisk.save.write"
    ~fp_rename:"ondisk.save.rename" ?counts idx dst;
  let elapsed = Pj_util.Timing.monotonic_now () -. t0 in
  let mapped = Pj_ondisk.Mapped_index.open_file dst in
  Pj_ondisk.Mapped_index.verify mapped;
  let info = Pj_ondisk.Mapped_index.info mapped in
  Printf.printf
    "compacted %s %s -> %s in %.2f s\n\
     %d documents, %d terms, %d postings in %d blocks, %d shard%s\n\
     file %s (postings %s on disk vs ~%s in memory, %.1fx smaller)\n"
    source src dst elapsed info.Pj_ondisk.Mapped_index.n_docs
    info.Pj_ondisk.Mapped_index.n_words info.Pj_ondisk.Mapped_index.n_postings
    info.Pj_ondisk.Mapped_index.n_blocks info.Pj_ondisk.Mapped_index.n_shards
    (if info.Pj_ondisk.Mapped_index.n_shards = 1 then "" else "s")
    (human_bytes info.Pj_ondisk.Mapped_index.file_bytes)
    (human_bytes info.Pj_ondisk.Mapped_index.postings_bytes)
    (human_bytes info.Pj_ondisk.Mapped_index.mem_postings_bytes)
    (if info.Pj_ondisk.Mapped_index.postings_bytes = 0 then 0.
     else
       float_of_int info.Pj_ondisk.Mapped_index.mem_postings_bytes
       /. float_of_int info.Pj_ondisk.Mapped_index.postings_bytes)

(* A numeric flag out of range is refused with one line before anything
   is loaded or bound. *)
let require cmd flag ok range =
  if not ok then failwith (Printf.sprintf "%s: %s must be %s" cmd flag range)

(* The flags [serve] and [serve-router] share. *)
let check_front_flags cmd ~port ~cache ~deadline_ms ~drain_ms ~log_every =
  require cmd "--port" (port >= 0 && port <= 65535) "in 0..65535";
  require cmd "--cache" (cache >= 1) ">= 1";
  require cmd "--deadline-ms" (deadline_ms >= 0.) ">= 0";
  require cmd "--drain-ms" (drain_ms >= 0.) ">= 0";
  require cmd "--log-every"
    (match log_every with Some s -> s > 0. | None -> true)
    "> 0 (omit it to disable the stats line)"

let run_serve file index_path host port domains queue cache deadline_ms
    drain_ms log_every live live_dir memtable wal fsync_policy_s =
  check_front_flags "serve" ~port ~cache ~deadline_ms ~drain_ms ~log_every;
  require "serve" "--domains" (domains >= 1) ">= 1";
  require "serve" "--queue" (queue >= 1) ">= 1";
  require "serve" "--memtable" (memtable >= 1) ">= 1";
  let graph = Pj_ontology.Mini_wordnet.create () in
  let fsync_policy =
    match Pj_live.Wal.fsync_policy_of_string fsync_policy_s with
    | Ok p -> p
    | Error msg -> failwith ("serve: --fsync-policy: " ^ msg)
  in
  if wal && live_dir = None then
    failwith "serve: --wal needs --live-dir (the log lives in that directory)";
  if index_path <> None && (live || live_dir <> None) then
    failwith
      "serve: --index and --live/--live-dir are mutually exclusive (a live \
       index manages its own storage)";
  let file =
    match (file, index_path) with
    | Some f, _ -> f
    | None, Some _ -> "/dev/null" (* unused: everything comes from --index *)
    | None, None -> failwith "serve: FILE is required unless --index is given"
  in
  let live_index =
    if not (live || live_dir <> None) then None
    else begin
      let config =
        {
          Pj_live.Live_index.dir = live_dir;
          memtable_capacity = memtable;
          merge_threshold =
            Pj_live.Live_index.default_config
              .Pj_live.Live_index.merge_threshold;
          background_merge = true;
          wal;
          fsync_policy;
        }
      in
      let index =
        match live_dir with
        | Some dir -> Pj_live.Live_index.open_dir ~config dir
        | None -> Pj_live.Live_index.create ~config ()
      in
      (* Seed from FILE only when the index holds nothing — a recovered
         index already contains its documents, and re-adding the file
         would duplicate them under fresh ids. *)
      if (Pj_live.Live_index.stats index).Pj_live.Live_index.total_docs = 0
      then begin
        ignore
          (Pj_live.Live_index.add_batch index
             (List.map Pj_text.Analyzer.stems (read_documents file)));
        ignore (Pj_live.Live_index.flush index)
      end;
      Some index
    end
  in
  let corpus, search =
    match (live_index, index_path) with
    | Some index, _ ->
        (Pj_live.Live_index.corpus index, Pj_server.Worker_pool.of_live index)
    | None, Some path ->
        (* Zero-copy serving: the index file is mapped, never loaded —
           postings and documents decode from the page cache per query.
           The whole file is one index whatever shard layout it
           persists. *)
        let mapped = Pj_ondisk.Mapped_index.open_file path in
        ( Pj_ondisk.Mapped_index.corpus mapped,
          Pj_server.Worker_pool.of_searcher
            (Pj_engine.Searcher.create (Pj_ondisk.Mapped_index.index mapped)) )
    | None, None ->
        let corpus = Pj_index.Corpus.of_stemmed_texts (read_documents file) in
        ( corpus,
          Pj_server.Worker_pool.of_searcher
            (Pj_engine.Searcher.create (Pj_index.Inverted_index.build corpus))
        )
  in
  let config =
    {
      Pj_server.Server.host;
      port;
      domains;
      queue_capacity = queue;
      cache_capacity = cache;
      deadline_s = deadline_ms /. 1000.;
      drain_s = drain_ms /. 1000.;
      log_every_s = log_every;
      binary_inflight =
        Pj_server.Server.default_config.Pj_server.Server.binary_inflight;
    }
  in
  (* Static servers advertise their document count in STATS ([docs=])
     so a router can derive doc-id bases; live servers already do. *)
  let stats =
    match live_index with
    | None -> Pj_server.Server.static_docs (Pj_index.Corpus.size corpus)
    | Some _ -> ignore
  in
  let server =
    Pj_server.Server.start ~config ?live:live_index ~stats ~graph search
  in
  (* SIGTERM/SIGINT trigger a graceful drain. The handler hands the
     (blocking) [Server.stop] to a fresh thread — a handler must not
     block. Subtlety: OCaml only runs signal handlers when some thread
     executes OCaml code, and on an idle server every thread is parked
     in a blocking syscall (accept, condition wait, read) — a pending
     SIGTERM would sit unhandled forever. The heartbeat thread below
     exists solely to return to OCaml a few times a second so pending
     handlers always run. (Blocking the signals and sigwait-ing them
     in a watcher thread does not work instead: runtime service
     threads created before main — domain 0's backup thread — keep
     them unblocked at default disposition, and delivery there kills
     the process.) *)
  let stopper = ref None in
  let stop_started = Atomic.make false in
  let on_signal _ =
    if not (Atomic.exchange stop_started true) then
      stopper :=
        Some (Thread.create (fun () -> Pj_server.Server.stop server) ())
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  let _heartbeat =
    Thread.create
      (fun () ->
        while true do
          Thread.delay 0.1
        done)
      ()
  in
  Printf.printf
    "proxjoin serving %d documents on %s:%d (%s%d domains, queue %d, cache \
     %d, deadline %.0f ms, drain %.0f ms)\n\
     %!"
    (Pj_index.Corpus.size corpus) host
    (Pj_server.Server.port server)
    (match (live_index, index_path) with
    | Some _, _ -> "live, "
    | None, Some _ -> "mmap, "
    | None, None -> "")
    config.Pj_server.Server.domains queue cache deadline_ms drain_ms;
  Pj_server.Server.wait server;
  (* The accept loop only dies via [stop], so the handler has run; its
     [stopper] assignment races only the few milliseconds stop takes.
     Joining it means drain and worker shutdown are complete before
     the process exits 0. *)
  let rec join_stopper () =
    match !stopper with
    | Some th -> Thread.join th
    | None ->
        Thread.delay 0.01;
        join_stopper ()
  in
  join_stopper ();
  (* The server does not own the live index; stop its merger only once
     no worker can submit another write. *)
  (match live_index with
  | Some index -> Pj_live.Live_index.close index
  | None -> ());
  Printf.printf "proxjoin: shut down cleanly\n%!"

(* --- serve-router: scatter-gather front-end over shard servers --------- *)

let run_serve_router host port backends replicas cache deadline_ms drain_ms
    log_every binary_inflight =
  check_front_flags "serve-router" ~port ~cache ~deadline_ms ~drain_ms
    ~log_every;
  require "serve-router" "--binary-inflight" (binary_inflight >= 1) ">= 1";
  let parse_spec s =
    match Pj_cluster.Router.spec_of_string s with
    | Ok spec -> spec
    | Error msg -> failwith ("serve-router: " ^ msg)
  in
  if backends = [] then
    failwith "serve-router needs at least one --backend HOST:PORT[@BASE]";
  let primaries = List.map parse_spec backends in
  let n = List.length primaries in
  let replicas_per_leg = Array.make n [] in
  List.iter
    (fun spec ->
      match String.index_opt spec '=' with
      | None ->
          failwith
            (Printf.sprintf
               "serve-router: bad --replica %S (want LEG=HOST:PORT, LEG a \
                0-based --backend index)"
               spec)
      | Some i -> (
          let leg = String.sub spec 0 i in
          let hp = String.sub spec (i + 1) (String.length spec - i - 1) in
          match int_of_string_opt leg with
          | Some l when l >= 0 && l < n ->
              replicas_per_leg.(l) <- replicas_per_leg.(l) @ [ parse_spec hp ]
          | _ ->
              failwith
                (Printf.sprintf
                   "serve-router: --replica %S names leg %s, but there are %d \
                    --backend legs (0..%d)"
                   spec leg n (n - 1))))
    replicas;
  let legs = List.mapi (fun i p -> (p, replicas_per_leg.(i))) primaries in
  let router =
    match Pj_cluster.Router.create ~legs () with
    | Ok r -> r
    | Error msg -> failwith ("serve-router: " ^ msg)
  in
  let config =
    {
      Pj_server.Server.host;
      port;
      (* The router does no local scoring: a server with a forward hook
         and no live index starts no worker pool, so these go unused. *)
      domains = 1;
      queue_capacity = 1;
      cache_capacity = cache;
      deadline_s = deadline_ms /. 1000.;
      drain_s = drain_ms /. 1000.;
      log_every_s = log_every;
      binary_inflight;
    }
  in
  let graph = Pj_ontology.Mini_wordnet.create () in
  let never_searches ~scoring:_ ~k:_ ~deadline:_ _query =
    (* Unused: the forward hook answers every SEARCH, and ingest verbs
       answer ERR (no --live). *)
    Ok ([], [])
  in
  let server =
    Pj_server.Server.start ~config
      ~forward:(Pj_cluster.Router.forward router)
      ~stats:(Pj_cluster.Router.register_stats router)
      ~graph never_searches
  in
  let stopper = ref None in
  let stop_started = Atomic.make false in
  let on_signal _ =
    if not (Atomic.exchange stop_started true) then
      stopper :=
        Some (Thread.create (fun () -> Pj_server.Server.stop server) ())
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  (* Same heartbeat as serve: signal handlers only run when a thread
     executes OCaml code. *)
  let _heartbeat =
    Thread.create
      (fun () ->
        while true do
          Thread.delay 0.1
        done)
      ()
  in
  let n_backends =
    List.fold_left (fun acc (_, rs) -> acc + 1 + List.length rs) 0 legs
  in
  Printf.printf
    "proxjoin routing %d leg%s (%d backend%s) on %s:%d (deadline %.0f ms, \
     drain %.0f ms, cache %d)\n\
     %!"
    n
    (if n = 1 then "" else "s")
    n_backends
    (if n_backends = 1 then "" else "s")
    host
    (Pj_server.Server.port server)
    deadline_ms drain_ms cache;
  Pj_server.Server.wait server;
  let rec join_stopper () =
    match !stopper with
    | Some th -> Thread.join th
    | None ->
        Thread.delay 0.01;
        join_stopper ()
  in
  join_stopper ();
  Pj_cluster.Router.close router;
  Printf.printf "proxjoin: shut down cleanly\n%!"

(* --- cmdliner glue ----------------------------------------------------- *)

open Cmdliner

let terms_arg =
  Arg.(
    value & opt_all string []
    & info [ "term"; "t" ] ~docv:"SPEC"
        ~doc:"Query term (repeatable): wordnet:CONCEPT, stem:WORD, \
              exact:WORD, date, place, city, country, year.")

let family_arg =
  Arg.(
    value & opt string "win"
    & info [ "scoring"; "s" ] ~docv:"FAMILY" ~doc:"win, med or max.")

let alpha_arg =
  Arg.(value & opt float 0.1 & info [ "alpha" ] ~doc:"Distance decay rate.")

let file_arg =
  Arg.(
    required & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Documents separated by blank lines.")

let wrap f = try `Ok (f ()) with Failure msg -> `Error (false, msg)

let search_cmd =
  let top_k = Arg.(value & opt int 5 & info [ "top" ] ~doc:"Results shown.") in
  let run file terms family alpha k =
    wrap (fun () -> run_search file terms family alpha k)
  in
  Cmd.v
    (Cmd.info "search" ~doc:"Rank documents by overall best matchset.")
    Term.(ret (const run $ file_arg $ terms_arg $ family_arg $ alpha_arg $ top_k))

let extract_cmd =
  let threshold =
    Arg.(
      value & opt (some float) None
      & info [ "min-score" ] ~doc:"Keep matchsets at or above this score.")
  in
  let run file terms family alpha t =
    wrap (fun () -> run_extract file terms family alpha t)
  in
  Cmd.v
    (Cmd.info "extract"
       ~doc:"All locally best matchsets per document (Section VII).")
    Term.(
      ret (const run $ file_arg $ terms_arg $ family_arg $ alpha_arg $ threshold))

let isearch_cmd =
  let top_k = Arg.(value & opt int 5 & info [ "top" ] ~doc:"Results shown.") in
  let run file terms family alpha k =
    wrap (fun () -> run_isearch file terms family alpha k)
  in
  Cmd.v
    (Cmd.info "isearch"
       ~doc:"Index-driven top-k search with highlighted snippets.")
    Term.(
      ret
        (const run $ file_arg $ terms_arg $ family_arg $ alpha_arg $ top_k))

let ask_cmd =
  let question =
    Arg.(
      required
      & opt (some string) None
      & info [ "question"; "q" ] ~docv:"TEXT" ~doc:"The factoid question.")
  in
  let top_k = Arg.(value & opt int 3 & info [ "top" ] ~doc:"Answers shown.") in
  let run file question k = wrap (fun () -> run_ask file question k) in
  Cmd.v
    (Cmd.info "ask" ~doc:"Answer a factoid question over the documents.")
    Term.(ret (const run $ file_arg $ question $ top_k))

let synth_cmd =
  let n_terms = Arg.(value & opt int 4 & info [ "terms" ] ~doc:"Query terms.") in
  let matches =
    Arg.(value & opt int 30 & info [ "matches" ] ~doc:"Total matches.")
  in
  let lambda =
    Arg.(value & opt float 2.0 & info [ "lambda" ] ~doc:"Duplicate control.")
  in
  let zipf = Arg.(value & opt float 1.1 & info [ "zipf" ] ~doc:"Skew s.") in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"PRNG seed.") in
  let run a b c d e = wrap (fun () -> run_synth a b c d e) in
  Cmd.v
    (Cmd.info "synth" ~doc:"Generate and solve one synthetic instance.")
    Term.(ret (const run $ n_terms $ matches $ lambda $ zipf $ seed))

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Bind/connect address.")

let port_arg ~default =
  Arg.(value & opt int default & info [ "port"; "p" ] ~docv:"PORT" ~doc:"TCP port.")

let log_every_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "log-every" ] ~docv:"SECONDS"
        ~doc:
          "Print a stats line on stderr every SECONDS (> 0); omit to \
           disable.")

let serve_cmd =
  let domains =
    Arg.(
      value
      & opt int (Pj_util.Parallel.recommended_domains ())
      & info [ "domains" ] ~doc:"Worker domains (default honors \\$PROXJOIN_DOMAINS).")
  in
  let queue =
    Arg.(value & opt int 64 & info [ "queue" ] ~doc:"Pending searches before BUSY.")
  in
  let cache =
    Arg.(value & opt int 1024 & info [ "cache" ] ~doc:"Result-cache entries.")
  in
  let deadline =
    Arg.(
      value & opt float 2000.
      & info [ "deadline-ms" ] ~doc:"Per-query wall-clock budget (ms).")
  in
  let drain =
    Arg.(
      value & opt float 5000.
      & info [ "drain-ms" ]
          ~doc:
            "On SIGTERM/SIGINT, how long in-flight requests may finish \
             before connections are force-closed (ms).")
  in
  let live =
    Arg.(
      value & flag
      & info [ "live" ]
          ~doc:
            "Serve a writable live index: ADDDOC/DELDOC/FLUSH ingest \
             documents while searches run. Implied by $(b,--live-dir).")
  in
  let live_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "live-dir" ] ~docv:"DIR"
          ~doc:
            "Persist the live index (segments + manifest) here and recover \
             from it on start; FILE seeds the index only when DIR is empty. \
             Implies $(b,--live).")
  in
  let memtable =
    Arg.(
      value & opt int 256
      & info [ "memtable" ] ~docv:"N"
          ~doc:"Live mode: auto-flush the memtable at N documents.")
  in
  let opt_file_arg =
    Arg.(
      value & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "Documents separated by blank lines (omit when serving a \
             compacted index via $(b,--index)).")
  in
  let index_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "index" ] ~docv:"PATH"
          ~doc:
            "Serve a compacted v4 index file zero-copy via mmap (see \
             $(b,proxjoin compact)): opening is O(1) and postings decode \
             from the page cache per query. The file is served as one \
             index whatever shard layout it persists. Mutually exclusive \
             with $(b,--live).")
  in
  let wal =
    Arg.(
      value & flag
      & info [ "wal" ]
          ~doc:
            "Live mode: write-ahead-log every acknowledged ADDDOC/DELDOC \
             into $(b,--live-dir) before answering, and replay the log on \
             restart — no acknowledged write is ever lost, even to \
             $(b,kill -9). Group-committed: one log write (and, under \
             $(b,per-batch), one fsync) per ingest batch.")
  in
  let fsync_policy =
    Arg.(
      value & opt string "per-batch"
      & info [ "fsync-policy" ] ~docv:"POLICY"
          ~doc:
            "When WAL commits reach the disk: $(b,per-batch) (fsync every \
             ingest batch — full durability), $(b,every:MS) (fsync at most \
             once per MS milliseconds — bounded loss), or $(b,never) (OS \
             write-through only — survives process crashes, not power \
             loss).")
  in
  let run file index host port domains queue cache deadline drain log_every
      live live_dir memtable wal fsync_policy =
    wrap (fun () ->
        run_serve file index host port domains queue cache deadline drain
          log_every live live_dir memtable wal fsync_policy)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve top-k queries over TCP (SEARCH/PING/STATS/QUIT line \
          protocol) from a hot in-memory index or an mmap-backed compacted \
          index (--index); with --live, also ADDDOC/DELDOC/FLUSH ingestion.")
    Term.(
      ret
        (const run $ opt_file_arg $ index_arg $ host_arg
       $ port_arg ~default:7070 $ domains $ queue $ cache $ deadline $ drain
       $ log_every_arg $ live $ live_dir $ memtable $ wal $ fsync_policy))

let serve_router_cmd =
  let backends =
    Arg.(
      value & opt_all string []
      & info [ "backend"; "b" ] ~docv:"HOST:PORT[@BASE]"
          ~doc:
            "A shard-server leg, in corpus order (repeatable). Each leg \
             serves a contiguous doc-id slice; hits are rebased by BASE, \
             which defaults to the cumulative docs= (from STATS) of the \
             preceding legs — so N plain backends partition the corpus in \
             the order given.")
  in
  let replicas =
    Arg.(
      value & opt_all string []
      & info [ "replica" ] ~docv:"LEG=HOST:PORT"
          ~doc:
            "A replica of leg LEG (0-based $(b,--backend) index, \
             repeatable): a backend serving the same doc slice, tried in \
             order when the leg's primary fails, before the query degrades.")
  in
  let cache =
    Arg.(value & opt int 1024 & info [ "cache" ] ~doc:"Result-cache entries.")
  in
  let deadline =
    Arg.(
      value & opt float 2000.
      & info [ "deadline-ms" ]
          ~doc:"Per-query wall-clock budget across scatter, retries and merge (ms).")
  in
  let drain =
    Arg.(
      value & opt float 5000.
      & info [ "drain-ms" ]
          ~doc:
            "On SIGTERM/SIGINT, how long in-flight requests may finish \
             before connections are force-closed (ms).")
  in
  let binary_inflight =
    Arg.(
      value & opt int 32
      & info [ "binary-inflight" ] ~docv:"N"
          ~doc:
            "Per-connection in-flight cap on the binary wire before the \
             router stops reading that client's socket.")
  in
  let run host port backends replicas cache deadline drain log_every
      binary_inflight =
    wrap (fun () ->
        run_serve_router host port backends replicas cache deadline drain
          log_every binary_inflight)
  in
  Cmd.v
    (Cmd.info "serve-router"
       ~doc:
         "Serve top-k queries by scatter-gathering over shard-server \
          backends (pipelined binary connections), merging the exact top-k \
          of surviving legs, and failing broken legs over to --replica \
          backends before answering OK-DEGRADED. Speaks the same text + \
          binary protocol as serve; STATS adds per-backend health.")
    Term.(
      ret
        (const run $ host_arg $ port_arg ~default:7080 $ backends $ replicas
       $ cache $ deadline $ drain $ log_every_arg $ binary_inflight))

let compact_cmd =
  let src =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"SRC"
          ~doc:
            "Source: raw documents separated by blank lines, or an \
             existing v4 file. Legacy v1..v3 corpus files are no longer \
             read; rebuild them from their documents.")
  in
  let dst =
    Arg.(
      required & pos 1 (some string) None
      & info [] ~docv:"DST" ~doc:"Output v4 index file.")
  in
  let run src dst = wrap (fun () -> run_compact src dst) in
  Cmd.v
    (Cmd.info "compact"
       ~doc:
         "Rewrite a corpus as a block-compressed v4 index file that \
          $(b,serve --index) maps zero-copy.")
    Term.(ret (const run $ src $ dst))

let inspect_cmd =
  let path =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"PATH" ~doc:"A v4 index file.")
  in
  let deep =
    Arg.(
      value & flag
      & info [ "deep" ]
          ~doc:
            "Additionally decode every document and posting block and audit \
             the skip tables (slow on large files).")
  in
  let run path deep = wrap (fun () -> run_inspect path deep) in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "Verify and summarize a v4 index file: format version, counts, \
          section sizes, compression ratio, the heaviest terms' blocks.")
    Term.(ret (const run $ path $ deep))

let demo_cmd =
  Cmd.v
    (Cmd.info "demo" ~doc:"The paper's Figure 1 example.")
    Term.(ret (const (fun () -> wrap run_demo) $ const ()))

let main =
  Cmd.group
    (Cmd.info "proxjoin" ~version:"1.0.0"
       ~doc:"Weighted proximity best-joins for information retrieval.")
    [
      demo_cmd;
      search_cmd;
      isearch_cmd;
      extract_cmd;
      ask_cmd;
      synth_cmd;
      compact_cmd;
      inspect_cmd;
      serve_cmd;
      serve_router_cmd;
    ]

let () =
  (* Fault injection is armed before any subcommand touches the index
     or the network, so storage load/save sites fire too. A bad spec
     is an operator error: report it and refuse to start. *)
  (match Pj_util.Failpoint.init_from_env () with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "proxjoin: bad $PROXJOIN_FAILPOINTS: %s\n%!" msg;
      exit 2);
  exit (Cmd.eval main)
