(* The counting builder against the accumulate-then-sort reference
   (Pj_reference): posting lists and block boundaries must agree for
   [build] over whole corpora and [Corpus.sub] views, and for
   [build_docs] with and without [~skip]. *)

open Pj_index

(* Documents over a small vocabulary, so tokens repeat within a
   document and a common token's list spans several 128-posting blocks.
   Empty and one-token documents occur by construction. *)
let corpus_gen =
  QCheck.Gen.(
    int_range 1 12 >>= fun vocab ->
    list_size (int_bound 320)
      (list_size (frequency [ (1, return 0); (1, return 1); (4, int_bound 14) ])
         (int_bound (vocab - 1))))

let corpus_of docs =
  let c = Corpus.create () in
  List.iter
    (fun toks ->
      ignore
        (Corpus.add_tokens c
           (Array.of_list (List.map (Printf.sprintf "w%d") toks))))
    docs;
  c

let print_docs docs =
  String.concat " | "
    (List.map (fun d -> String.concat " " (List.map string_of_int d)) docs)

(* Postings, then the block boundary as a cursor reports it at every
   posting: (doc, positions, block last doc). *)
let observe pl =
  let c = Posting_list.cursor pl in
  let out = ref [] in
  let rec walk () =
    match Posting_list.current c with
    | None -> ()
    | Some p ->
        out :=
          ( p.Posting.doc_id,
            Array.to_list p.Posting.positions,
            Posting_list.block_last_doc c )
          :: !out;
        Posting_list.next c;
        walk ()
  in
  walk ();
  List.rev !out

let same_index a b =
  let n = Pj_text.Vocab.size (Corpus.vocab (Inverted_index.corpus a)) in
  Inverted_index.vocabulary_size a = Inverted_index.vocabulary_size b
  && Inverted_index.stats a = Inverted_index.stats b
  && List.for_all
       (fun tok ->
         observe (Inverted_index.postings a tok)
         = observe (Inverted_index.postings b tok))
       (List.init n Fun.id)

let prop_build =
  QCheck.Test.make ~count:300 ~name:"build = reference (whole corpus)"
    (QCheck.make ~print:print_docs corpus_gen) (fun docs ->
      let c = corpus_of docs in
      same_index (Inverted_index.build c) (Pj_reference.build_index c))

let prop_build_sub =
  QCheck.Test.make ~count:300 ~name:"build = reference (Corpus.sub views)"
    (QCheck.make
       ~print:(fun (docs, a, b) -> Printf.sprintf "%s @ %d,%d" (print_docs docs) a b)
       QCheck.Gen.(triple corpus_gen nat nat))
    (fun (docs, a, b) ->
      let c = corpus_of docs in
      let n = Corpus.size c in
      let pos = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - pos = 0 then 0 else b mod (n - pos + 1) in
      let v = Corpus.sub c ~pos ~len in
      same_index (Inverted_index.build v) (Pj_reference.build_index v))

let prop_build_docs =
  QCheck.Test.make ~count:300 ~name:"build_docs ~skip = reference"
    (QCheck.make
       ~print:(fun (docs, a, b, m) ->
         Printf.sprintf "%s @ %d,%d skip mod %d" (print_docs docs) a b m)
       QCheck.Gen.(quad corpus_gen nat nat (int_range 0 5)))
    (fun (docs, a, b, m) ->
      let c = corpus_of docs in
      let n = Corpus.size c in
      let pos = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - pos = 0 then 0 else b mod (n - pos + 1) in
      let slice = Corpus.docs_slice c ~pos ~len in
      (* m = 0: no skip argument at all; otherwise drop every m-th id. *)
      let skip = if m = 0 then None else Some (fun id -> id mod m = 0) in
      let idx = Inverted_index.build_docs ?skip c slice in
      let expected = Pj_reference.index_lists ?skip slice in
      Inverted_index.vocabulary_size idx = List.length expected
      && List.for_all
           (fun (tok, pl) -> observe (Inverted_index.postings idx tok) = observe pl)
           expected)

(* A token repeated through one document, and a list long enough for
   several blocks with a partial last one. *)
let test_repeated_and_blocks () =
  let c = Corpus.create () in
  ignore (Corpus.add_tokens c (Array.make 50 "a"));
  for i = 1 to 300 do
    ignore (Corpus.add_tokens c (Array.init (1 + (i mod 7)) (fun j -> if j mod 2 = 0 then "a" else "b")))
  done;
  Alcotest.(check bool) "equal" true
    (same_index (Inverted_index.build c) (Pj_reference.build_index c));
  match Pj_text.Vocab.find (Corpus.vocab c) "a" with
  | None -> Alcotest.fail "token a missing"
  | Some a ->
      Alcotest.(check (array int)) "positions of the repeated token"
        (Array.init 50 Fun.id)
        (Inverted_index.positions_in (Inverted_index.build c) ~token:a ~doc_id:0)

(* The memoized loader ([Corpus.of_stemmed_texts]) against the per-token
   one ([add_tokens] over [Analyzer.stems]): same ids in the same order,
   same token arrays. The words include distinct surface forms sharing
   a stem, case variants and edge punctuation. *)
let words =
  [| "Connect"; "connected"; "connecting"; "connection"; "run"; "running";
     "runs"; "LENOVO"; "lenovo's"; "--nba--"; "partner"; "partnership";
     "e-mail"; "2008"; "the"; "a"; "rock-'n'-roll"; "Generously"; "generous" |]

let text_gen =
  QCheck.Gen.(
    list_size (int_bound 30)
      (map
         (fun ws -> String.concat " " (List.map (fun i -> words.(i)) ws))
         (list_size (int_bound 25) (int_bound (Array.length words - 1)))))

let prop_memo_loader =
  QCheck.Test.make ~count:300 ~name:"memoized loader = per-token loader"
    (QCheck.make ~print:(String.concat "\n") text_gen) (fun texts ->
      let memo = Corpus.of_stemmed_texts texts in
      let plain = Corpus.create () in
      List.iter
        (fun t -> ignore (Corpus.add_tokens plain (Pj_text.Analyzer.stems t)))
        texts;
      let vocab_words c =
        let v = Corpus.vocab c in
        List.init (Pj_text.Vocab.size v) (Pj_text.Vocab.word v)
      in
      let token_arrays c =
        Corpus.fold (fun acc d -> d.Pj_text.Document.tokens :: acc) [] c
      in
      vocab_words memo = vocab_words plain
      && token_arrays memo = token_arrays plain)

let test_add_ids_rejects_unknown () =
  let c = Corpus.create () in
  ignore (Corpus.add_tokens c [| "x" |]);
  Alcotest.check_raises "id past the vocabulary"
    (Invalid_argument "Corpus.add_ids: token id outside the vocabulary")
    (fun () -> ignore (Corpus.add_ids c [| 0; 1 |]));
  let d = Corpus.add_ids c [| 0; 0 |] in
  Alcotest.(check int) "next id" 1 d.Pj_text.Document.id

let suite =
  List.map QCheck_alcotest.to_alcotest
    [ prop_build; prop_build_sub; prop_build_docs; prop_memo_loader ]
  @ [
      Alcotest.test_case "repeated token, several blocks" `Quick
        test_repeated_and_blocks;
      Alcotest.test_case "add_ids rejects unknown ids" `Quick
        test_add_ids_rejects_unknown;
    ]
