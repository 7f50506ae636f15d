(* A small news search engine: index once, persist, reopen, and answer
   entity-style queries with ranked, highlighted snippets — the
   downstream-system view of the weighted proximity best-join, built
   from the library's engine layer (IDF scoring, conjunctive candidate
   generation, snippets) over the index substrate.

     dune exec examples/news_search.exe *)

let articles =
  [
    "lenovo announced a marketing partnership with the nba on thursday \
     making the chinese pc maker the official technology provider of \
     the basketball league";
    "dell shares rose after the company reported strong laptop sales in \
     europe despite fierce competition from lenovo and hewlett-packard";
    "the olympic games organizing committee signed a sponsorship deal \
     with a major computer manufacturer covering the beijing events";
    "nba attendance reached a record high this season as the basketball \
     league expanded its international marketing programs";
    "a partnership between the university of toronto and a robotics \
     startup will fund new laboratories over the next five years";
    "lenovo quarterly profits beat expectations on strong server demand \
     while its partnership with the nba boosted brand recognition in \
     north america";
  ]

let () =
  (* 1. Build and persist the index, then reopen it — a deployment would
     index offline and search online. *)
  let corpus = Pj_index.Corpus.create () in
  List.iter (fun a -> ignore (Pj_index.Corpus.add_text corpus a)) articles;
  let path = Filename.temp_file "news" ".pjx4" in
  Storage_cleanup.with_file path @@ fun () ->
  Pj_ondisk.Writer.write (Pj_index.Inverted_index.build corpus) path;
  let index =
    Pj_ondisk.Mapped_index.index (Pj_ondisk.Mapped_index.open_file path)
  in
  Printf.printf "reopened index: %d articles, %d distinct tokens\n\n"
    (Pj_index.Corpus.size (Pj_index.Inverted_index.corpus index))
    (Pj_index.Inverted_index.vocabulary_size index);
  (* 2. The query: company x sports x partnership, with the company and
     partnership vocabularies weighted by corpus IDF so that rare,
     specific tokens count more. *)
  let company =
    Pj_engine.Idf.weighted_matcher index
      (Pj_matching.Matcher.of_table ~name:"company"
         [ ("lenovo", 1.); ("dell", 1.); ("hewlett-packard", 1.) ])
  in
  let sports =
    Pj_matching.Matcher.of_table ~name:"sports"
      [ ("nba", 1.); ("olympic", 0.9); ("basketball", 0.8); ("league", 0.6) ]
  in
  let partnership =
    Pj_matching.Matcher.of_table ~name:"partnership"
      [ ("partnership", 1.); ("sponsorship", 0.9); ("deal", 0.7) ]
  in
  let query =
    Pj_matching.Query.make "company sports partnership"
      [ company; sports; partnership ]
  in
  (* 3. Search and render. *)
  let searcher = Pj_engine.Searcher.create index in
  let scoring = Pj_core.Scoring.Med (Pj_core.Scoring.med_exponential ~alpha:0.15) in
  let hits = Pj_engine.Searcher.search ~k:3 searcher scoring query in
  let vocab = Pj_index.Corpus.vocab (Pj_index.Inverted_index.corpus index) in
  Printf.printf "query: company + sports + partnership (MED scoring)\n";
  List.iteri
    (fun i hit ->
      let doc =
        Pj_index.Corpus.document
          (Pj_index.Inverted_index.corpus index)
          hit.Pj_engine.Searcher.doc_id
      in
      Printf.printf "\n#%d article %d (score %.4f)\n" (i + 1)
        hit.Pj_engine.Searcher.doc_id hit.Pj_engine.Searcher.score;
      Printf.printf "   answer: %s\n"
        (String.concat " / "
           (Pj_engine.Snippet.answer_words vocab hit.Pj_engine.Searcher.matchset));
      Printf.printf "   %s\n"
        (Pj_engine.Snippet.render ~padding:4 vocab doc
           hit.Pj_engine.Searcher.matchset))
    hits
