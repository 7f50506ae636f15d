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

(* --- scoring closures ------------------------------------------------- *)

let win_exponential ~alpha =
  {
    Pj_core.Scoring.win_g = (fun _ x -> log x);
    win_form =
      Pj_core.Scoring.Win_closures
        {
          key = (fun x y -> x -. (alpha *. float_of_int y));
          f = (fun x y -> exp (x -. (alpha *. float_of_int y)));
        };
    win_name = Printf.sprintf "WIN-exp(%.2g) closures" alpha;
  }

let med_exponential ~alpha =
  {
    Pj_core.Scoring.med_g = (fun _ x -> log x /. alpha);
    med_f = Pj_core.Scoring.Outer (fun x -> exp (alpha *. x));
    med_name = Printf.sprintf "MED-exp(%.2g) closures" alpha;
  }

let max_sum ~alpha =
  {
    Pj_core.Scoring.max_form =
      Pj_core.Scoring.Contribution
        (fun _ x d -> x *. exp (-.alpha *. float_of_int d));
    max_f = Pj_core.Scoring.Outer (fun x -> x);
    max_name = Printf.sprintf "MAX-sum(%.2g) closures" alpha;
  }

(* --- index build ------------------------------------------------------- *)

(* The accumulate-then-sort build the counting builder replaced: one Vec
   of (doc, positions Vec) per token, relying on documents arriving in
   increasing id order, then [Posting.make] (copy + sort) and
   [Posting_list.of_postings] (sort + merge) per list. *)
let accumulate per_tok_of docs =
  Array.iter
    (fun d ->
      Array.iteri
        (fun pos tok ->
          let per_tok = per_tok_of tok in
          let doc_id = d.Pj_text.Document.id in
          if
            Pj_util.Vec.is_empty per_tok
            || fst (Pj_util.Vec.last per_tok) <> doc_id
          then begin
            let v = Pj_util.Vec.create () in
            Pj_util.Vec.push v pos;
            Pj_util.Vec.push per_tok (doc_id, v)
          end
          else Pj_util.Vec.push (snd (Pj_util.Vec.last per_tok)) pos)
        d.Pj_text.Document.tokens)
    docs

let list_of_acc per_tok =
  Pj_util.Vec.to_list per_tok
  |> List.map (fun (doc_id, v) ->
         Pj_index.Posting.make ~doc_id ~positions:(Pj_util.Vec.to_array v))
  |> Pj_index.Posting_list.of_postings

let index_lists ?(skip = fun _ -> false) docs =
  let acc = Hashtbl.create 256 in
  let per_tok_of tok =
    match Hashtbl.find_opt acc tok with
    | Some v -> v
    | None ->
        let v = Pj_util.Vec.create () in
        Hashtbl.add acc tok v;
        v
  in
  accumulate per_tok_of
    (Array.of_seq
       (Seq.filter
          (fun d -> not (skip d.Pj_text.Document.id))
          (Array.to_seq docs)));
  Hashtbl.fold (fun tok per_tok l -> (tok, list_of_acc per_tok) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let build_index corpus =
  let n_tokens = Pj_text.Vocab.size (Pj_index.Corpus.vocab corpus) in
  let lists = Array.make n_tokens Pj_index.Posting_list.empty in
  List.iter
    (fun (tok, pl) -> lists.(tok) <- pl)
    (index_lists
       (Pj_index.Corpus.docs_slice corpus ~pos:0
          ~len:(Pj_index.Corpus.size corpus)));
  let postings tok =
    if tok < 0 || tok >= n_tokens then Pj_index.Posting_list.empty
    else lists.(tok)
  in
  let stats () =
    Array.fold_left
      (fun (s : Pj_index.Inverted_index.stats) pl ->
        {
          s with
          n_postings = s.n_postings + Pj_index.Posting_list.document_frequency pl;
          n_positions =
            s.n_positions + Pj_index.Posting_list.collection_frequency pl;
        })
      { Pj_index.Inverted_index.n_tokens; n_postings = 0; n_positions = 0 }
      lists
  in
  Pj_index.Inverted_index.of_provider corpus
    {
      Pj_index.Inverted_index.pr_postings = postings;
      pr_cursor = (fun tok -> Pj_index.Posting_list.cursor (postings tok));
      pr_positions =
        (fun ~token ~doc_id ->
          match Pj_index.Posting_list.find (postings token) doc_id with
          | Some p -> p.Pj_index.Posting.positions
          | None -> [||]);
      pr_document_frequency =
        (fun tok -> Pj_index.Posting_list.document_frequency (postings tok));
      pr_n_tokens = n_tokens;
      pr_stats = stats;
      pr_iter =
        Some
          (fun f ->
            Array.iteri
              (fun tok pl ->
                if Pj_index.Posting_list.document_frequency pl > 0 then f tok pl)
              lists);
    }

let balanced_counts ~shards n =
  let shards = Stdlib.max 1 shards in
  let base = n / shards and extra = n mod shards in
  Array.init shards (fun i -> base + if i < extra then 1 else 0)

let sharded ~shards corpus =
  Pj_index.Sharded_index.of_prebuilt corpus
    ~counts:(balanced_counts ~shards (Pj_index.Corpus.size corpus))
    ~shard_of:(fun _ ~pos ~len ->
      Pj_index.Inverted_index.build (Pj_index.Corpus.sub corpus ~pos ~len))
