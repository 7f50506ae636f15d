open Pj_index

let test_make_sorts () =
  let p = Posting.make ~doc_id:3 ~positions:[| 9; 1; 4 |] in
  Alcotest.(check (array int)) "sorted" [| 1; 4; 9 |] p.Posting.positions;
  Alcotest.(check int) "tf" 3 (Posting.term_frequency p)

let test_of_sorted () =
  let positions = [| 1; 4; 9 |] in
  let p = Posting.of_sorted ~doc_id:3 ~positions in
  Alcotest.(check bool) "adopted, not copied" true (p.Posting.positions == positions);
  ignore (Posting.of_sorted ~doc_id:0 ~positions:[||]);
  ignore (Posting.of_sorted ~doc_id:0 ~positions:[| 7 |]);
  let rejects name positions =
    Alcotest.check_raises name
      (Invalid_argument "Posting.of_sorted: positions not strictly increasing")
      (fun () -> ignore (Posting.of_sorted ~doc_id:3 ~positions))
  in
  rejects "unsorted" [| 1; 9; 4 |];
  rejects "duplicate" [| 1; 4; 4; 9 |];
  rejects "descending pair" [| 2; 1 |]

let test_of_postings_merges_same_doc () =
  let pl =
    Posting_list.of_postings
      [
        Posting.make ~doc_id:2 ~positions:[| 5 |];
        Posting.make ~doc_id:1 ~positions:[| 3 |];
        Posting.make ~doc_id:2 ~positions:[| 1; 5 |];
      ]
  in
  Alcotest.(check int) "df" 2 (Posting_list.document_frequency pl);
  Alcotest.(check (array int)) "doc ids sorted" [| 1; 2 |] (Posting_list.doc_ids pl);
  (match Posting_list.find pl 2 with
  | Some p ->
      Alcotest.(check (array int)) "positions unioned" [| 1; 5 |] p.Posting.positions
  | None -> Alcotest.fail "doc 2 missing");
  Alcotest.(check int) "cf" 3 (Posting_list.collection_frequency pl)

let test_find_missing () =
  let pl = Posting_list.of_postings [ Posting.make ~doc_id:4 ~positions:[| 0 |] ] in
  Alcotest.(check bool) "missing doc" true (Posting_list.find pl 5 = None);
  Alcotest.(check bool) "empty list" true (Posting_list.find Posting_list.empty 4 = None)

let test_union () =
  let a = Posting_list.of_postings [ Posting.make ~doc_id:1 ~positions:[| 2 |] ] in
  let b =
    Posting_list.of_postings
      [
        Posting.make ~doc_id:1 ~positions:[| 7 |];
        Posting.make ~doc_id:3 ~positions:[| 0 |];
      ]
  in
  let u = Posting_list.union a b in
  Alcotest.(check int) "df" 2 (Posting_list.document_frequency u);
  match Posting_list.find u 1 with
  | Some p -> Alcotest.(check (array int)) "merged" [| 2; 7 |] p.Posting.positions
  | None -> Alcotest.fail "doc 1 missing"

let test_iter_order () =
  let pl =
    Posting_list.of_postings
      [
        Posting.make ~doc_id:9 ~positions:[| 0 |];
        Posting.make ~doc_id:2 ~positions:[| 0 |];
      ]
  in
  let ids = ref [] in
  Posting_list.iter (fun p -> ids := p.Posting.doc_id :: !ids) pl;
  Alcotest.(check (list int)) "in doc order" [ 2; 9 ] (List.rev !ids)

let suite =
  [
    ("posting: make sorts", `Quick, test_make_sorts);
    ("posting: of_sorted checks, never copies", `Quick, test_of_sorted);
    ("posting_list: merges same doc", `Quick, test_of_postings_merges_same_doc);
    ("posting_list: find missing", `Quick, test_find_missing);
    ("posting_list: union", `Quick, test_union);
    ("posting_list: iteration order", `Quick, test_iter_order);
  ]
