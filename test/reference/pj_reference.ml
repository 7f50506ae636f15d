module Iset = Set.Make (Int)

let term_docs idx (m : Pj_matching.Matcher.t) =
  match m.Pj_matching.Matcher.expansions with
  | None -> invalid_arg "Pj_reference: matcher without finite expansions"
  | Some expansions ->
      List.fold_left
        (fun acc (form, _) ->
          Pj_index.Posting_list.fold
            (fun acc p -> Iset.add p.Pj_index.Posting.doc_id acc)
            acc
            (Pj_index.Inverted_index.postings_of_word idx form))
        Iset.empty expansions

let candidates idx (q : Pj_matching.Query.t) =
  match Array.to_list (Array.map (term_docs idx) q.Pj_matching.Query.matchers) with
  | [] -> [||]
  | first :: rest ->
      Array.of_list (Iset.elements (List.fold_left Iset.inter first rest))

let compare_hits (a : Pj_engine.Searcher.hit) (b : Pj_engine.Searcher.hit) =
  match compare b.score a.score with 0 -> compare a.doc_id b.doc_id | c -> c

let search ~k idx scoring q =
  let hits =
    Array.to_list (candidates idx q)
    |> List.filter_map (fun doc_id ->
           let problem = Pj_matching.Match_builder.from_index idx ~doc_id q in
           Option.map
             (fun (r : Pj_core.Naive.result) ->
               {
                 Pj_engine.Searcher.doc_id;
                 score = r.score;
                 matchset = r.matchset;
               })
             (Pj_core.Best_join.solve ~dedup:true scoring problem))
  in
  List.filteri (fun i _ -> i < k) (List.sort compare_hits hits)
