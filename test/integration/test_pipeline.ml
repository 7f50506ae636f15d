(* End-to-end pipelines across all layers: text -> index -> matching ->
   core -> engine, exercised together the way a downstream application
   would use them. *)

let figure1_text =
  "As part of the new deal, Lenovo will become the official PC partner \
   of the NBA, and it will be marketing its NBA affiliation in the US \
   and in China. The laptop-maker has a similar marketing and technology \
   partnership with the Olympic Games."

let build_figure1 () =
  let graph = Pj_ontology.Mini_wordnet.create () in
  let query =
    Pj_matching.Query.make "figure 1"
      [
        Pj_matching.Wordnet_matcher.create graph "pc-maker";
        Pj_matching.Wordnet_matcher.create graph "sports";
        Pj_matching.Wordnet_matcher.create graph "partnership";
      ]
  in
  let vocab = Pj_text.Vocab.create () in
  let doc = Pj_text.Document.of_text vocab ~id:0 figure1_text in
  (vocab, doc, query)

let test_figure1_all_scorings_agree_on_answerability () =
  let vocab, doc, query = build_figure1 () in
  let problem = Pj_matching.Match_builder.scan vocab doc query in
  List.iter
    (fun scoring ->
      match Pj_core.Best_join.solve ~dedup:true scoring problem with
      | None ->
          Alcotest.failf "%s found nothing" (Pj_core.Scoring.name scoring)
      | Some r ->
          Alcotest.(check bool) "valid" true
            (Pj_core.Matchset.is_valid r.Pj_core.Naive.matchset);
          (* Render a snippet: must contain all three marked answers. *)
          let snippet =
            Pj_engine.Snippet.render vocab doc r.Pj_core.Naive.matchset
          in
          let brackets =
            String.fold_left
              (fun n c -> if c = '[' then n + 1 else n)
              0 snippet
          in
          Alcotest.(check int)
            (Pj_core.Scoring.name scoring ^ " snippet marks")
            3 brackets)
    [
      Pj_core.Scoring.Win (Pj_core.Scoring.win_exponential ~alpha:0.2);
      Pj_core.Scoring.Med (Pj_core.Scoring.med_exponential ~alpha:0.2);
      Pj_core.Scoring.Max (Pj_core.Scoring.max_sum ~alpha:0.2);
    ]

let test_figure1_phrase_upgrade () =
  (* Adding an "olympic games" phrase raises the sports match at that
     location above the single-token expansion score. *)
  let vocab, doc, query = build_figure1 () in
  let base = Pj_matching.Match_builder.scan vocab doc query in
  let phrases = [| []; [ ([ "olympic"; "games" ], 1.0) ]; [] |] in
  let upgraded =
    Pj_matching.Phrase.scan_with_phrases vocab doc query ~phrases
  in
  let find_at list loc =
    Array.to_list list
    |> List.find_opt (fun m -> m.Pj_core.Match0.loc = loc)
  in
  (* Locate the "olympic" token. *)
  let olympic_loc = ref (-1) in
  Array.iteri
    (fun i tok ->
      if Pj_text.Vocab.word vocab tok = "olympic" then olympic_loc := i)
    doc.Pj_text.Document.tokens;
  Alcotest.(check bool) "olympic present" true (!olympic_loc >= 0);
  let base_score =
    match find_at base.(1) !olympic_loc with
    | Some m -> m.Pj_core.Match0.score
    | None -> 0.
  in
  match find_at upgraded.(1) !olympic_loc with
  | Some m ->
      Alcotest.(check (float 1e-9)) "phrase score" 1.0 m.Pj_core.Match0.score;
      Alcotest.(check bool) "upgraded" true (m.Pj_core.Match0.score > base_score)
  | None -> Alcotest.fail "phrase match missing"

let test_persistence_preserves_search () =
  let corpus = Pj_index.Corpus.create () in
  List.iter
    (fun t -> ignore (Pj_index.Corpus.add_text corpus t))
    [
      "lenovo nba partnership in beijing";
      "dell olympic sponsorship in turin";
      "nothing relevant here at all";
    ];
  let q =
    Pj_matching.Query.make "q"
      [
        Pj_matching.Matcher.of_table ~name:"company"
          [ ("lenovo", 1.); ("dell", 0.8) ];
        Pj_matching.Matcher.of_table ~name:"sports"
          [ ("nba", 1.); ("olympic", 0.9) ];
      ]
  in
  let scoring = Pj_core.Scoring.Win Pj_core.Scoring.win_linear in
  let search index =
    let s = Pj_engine.Searcher.create index in
    Pj_engine.Searcher.search s scoring q
    |> List.map (fun h -> (h.Pj_engine.Searcher.doc_id, h.Pj_engine.Searcher.score))
  in
  let index = Pj_index.Inverted_index.build corpus in
  let before = search index in
  let path = Filename.temp_file "pj_integration" ".pjx4" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Pj_ondisk.Writer.write index path;
      let after =
        search (Pj_ondisk.Mapped_index.index (Pj_ondisk.Mapped_index.open_file path))
      in
      Alcotest.(check (list (pair int (float 1e-9)))) "hits stable" before after)

let test_streams_match_batch_on_real_matchlists () =
  (* The streaming operators must agree with the batch solvers on match
     lists produced by the real matchers over a generated corpus. *)
  let spec = Pj_workload.Trec_sim.find_spec "Q7" in
  let case = Pj_workload.Trec_sim.generate ~seed:5 ~n_docs:30 ~doc_length:150 spec in
  let med = Pj_core.Scoring.med_linear in
  let max_ = Pj_core.Scoring.max_sum ~alpha:0.1 in
  Array.iter
    (fun (_, p) ->
      if not (Pj_core.Match_list.has_empty_list p) then begin
        let agree a b =
          List.length a = List.length b
          && List.for_all2
               (fun (x : Pj_core.Anchored.entry) (y : Pj_core.Anchored.entry) ->
                 x.Pj_core.Anchored.anchor = y.Pj_core.Anchored.anchor
                 && Float.abs (x.Pj_core.Anchored.score -. y.Pj_core.Anchored.score)
                    <= 1e-9)
               a b
        in
        Alcotest.(check bool) "med stream agrees" true
          (agree (Pj_core.Med_stream.run med p) (Pj_core.By_location.med med p));
        Alcotest.(check bool) "max stream agrees" true
          (agree (Pj_core.Max_stream.run max_ p) (Pj_core.By_location.max_ max_ p))
      end)
    case.Pj_workload.Trec_sim.problems

let test_parser_to_extraction_flow () =
  (* The CLI flow: parse term specs, scan documents, extract by
     location, keep high scorers. *)
  let graph = Pj_ontology.Mini_wordnet.create () in
  let query =
    match
      Pj_matching.Query_parser.parse graph
        [ "exact:conference|exact:workshop"; "date"; "city" ]
    with
    | Ok q -> q
    | Error e -> Alcotest.fail e
  in
  let vocab = Pj_text.Vocab.create () in
  let doc =
    Pj_text.Document.of_text vocab ~id:0
      "the workshop will be held in vienna on 12 june 2008 with a paper \
       deadline of 1 march 2008"
  in
  let problem = Pj_matching.Match_builder.scan vocab doc query in
  let entries =
    Pj_core.Best_join.by_location
      (Pj_core.Scoring.Win Pj_core.Scoring.win_linear)
      problem
  in
  Alcotest.(check bool) "entries found" true (entries <> []);
  match Pj_core.By_location.best_entry entries with
  | Some e ->
      let words =
        Array.to_list e.Pj_core.By_location.matchset
        |> List.map (fun m -> Pj_text.Vocab.word vocab m.Pj_core.Match0.payload)
      in
      Alcotest.(check bool) "workshop extracted" true (List.mem "workshop" words);
      Alcotest.(check bool) "vienna extracted" true (List.mem "vienna" words);
      Alcotest.(check bool) "event date extracted" true
        (List.mem "june" words || List.mem "2008" words)
  | None -> Alcotest.fail "no best entry"

let test_win_stream_over_live_scan () =
  (* Feed a live document scan into the streaming WIN operator. *)
  let vocab, doc, query = build_figure1 () in
  let problem = Pj_matching.Match_builder.scan vocab doc query in
  let w = Pj_core.Scoring.win_exponential ~alpha:0.2 in
  let streamed = Pj_core.Win_stream.run w problem in
  let batch = Pj_core.By_location.win w problem in
  Alcotest.(check int) "same entry count" (List.length batch)
    (List.length streamed)

let suite =
  [
    ("pipeline: figure 1 all scorings", `Quick, test_figure1_all_scorings_agree_on_answerability);
    ("pipeline: phrase upgrade", `Quick, test_figure1_phrase_upgrade);
    ("pipeline: persistence preserves search", `Quick, test_persistence_preserves_search);
    ("pipeline: streams on real match lists", `Quick, test_streams_match_batch_on_real_matchlists);
    ("pipeline: parser to extraction", `Quick, test_parser_to_extraction_flow);
    ("pipeline: win stream over live scan", `Quick, test_win_stream_over_live_scan);
  ]
