let scan vocab (doc : Pj_text.Document.t) (q : Query.t) =
  let n = Query.n_terms q in
  let lists = Array.init n (fun _ -> Pj_util.Vec.create ()) in
  (* Memoize per distinct token id: the per-term score vector. *)
  let cache : (int, float option array) Hashtbl.t = Hashtbl.create 256 in
  Array.iteri
    (fun pos tok ->
      let scores =
        match Hashtbl.find_opt cache tok with
        | Some s -> s
        | None ->
            let word = Pj_text.Vocab.word vocab tok in
            let s =
              Array.map (fun m -> m.Matcher.score_token word) q.Query.matchers
            in
            Hashtbl.add cache tok s;
            s
      in
      Array.iteri
        (fun j score ->
          match score with
          | None -> ()
          | Some score ->
              Pj_util.Vec.push lists.(j)
                (Pj_core.Match0.make ~payload:tok ~loc:pos ~score ()))
        scores)
    doc.Pj_text.Document.tokens;
  Array.map Pj_util.Vec.to_array lists

let form_tokens vocab expansions =
  let merge acc (form, score) =
    match Pj_text.Vocab.find vocab form with
    | None -> acc
    | Some (tok : int) when List.exists (fun (t, _) -> t = tok) acc ->
        List.map (fun (t, s) -> (t, if t = tok then Float.max s score else s)) acc
    | Some tok -> (tok, score) :: acc
  in
  List.rev (List.fold_left merge [] expansions)

let of_form_matches arr =
  let in_order = ref true in
  for i = 1 to Array.length arr - 1 do
    if arr.(i - 1).Pj_core.Match0.loc >= arr.(i).Pj_core.Match0.loc then
      in_order := false
  done;
  (* One form's positions arrive strictly increasing: nothing to sort. *)
  if not !in_order then
    Array.sort
      (fun a b -> Int.compare a.Pj_core.Match0.loc b.Pj_core.Match0.loc)
      arr;
  arr

let from_index idx ~doc_id (q : Query.t) =
  let vocab = Pj_index.Corpus.vocab (Pj_index.Inverted_index.corpus idx) in
  Array.map
    (fun m ->
      match m.Matcher.expansions with
      | None ->
          invalid_arg
            (Printf.sprintf
               "Match_builder.from_index: matcher %s has no finite expansions"
               m.Matcher.name)
      | Some expansions ->
          let matches = Pj_util.Vec.create () in
          List.iter
            (fun (tok, score) ->
              Array.iter
                (fun pos ->
                  Pj_util.Vec.push matches
                    (Pj_core.Match0.make ~payload:tok ~loc:pos ~score ()))
                (Pj_index.Inverted_index.positions_in idx ~token:tok ~doc_id))
            (form_tokens vocab expansions);
          of_form_matches (Pj_util.Vec.to_array matches))
    q.Query.matchers

let scan_corpus corpus q =
  let vocab = Pj_index.Corpus.vocab corpus in
  Array.init (Pj_index.Corpus.size corpus) (fun i ->
      let doc = Pj_index.Corpus.document corpus i in
      (doc, scan vocab doc q))
