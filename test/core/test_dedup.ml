open Pj_core

let m ?(score = 1.) loc = Match0.make ~loc ~score ()

(* A problem generator biased toward duplicates: locations are drawn
   from a tiny range so cross-list collisions are frequent. *)
let dup_problem_arb =
  Gen.problem_arb ~min_terms:2 ~max_terms:3 ~max_len:4 ~max_loc:5 ()

let test_china_example () =
  (* Section VI's {asia, porcelain} example in miniature: a single token
     matching both terms at location 5 scores best when duplicates are
     allowed, but the valid best must use two distinct tokens. *)
  let w = Scoring.win_exponential ~alpha:0.1 in
  let china_asia = m ~score:1.0 5 in
  let china_porcelain = m ~score:1.0 5 in
  let jingdezhen = m ~score:0.7 20 in
  let ceramics = m ~score:0.9 22 in
  let p = [| [| china_asia; jingdezhen |]; [| china_porcelain; ceramics |] |] in
  (match Win.best w p with
  | Some r ->
      Alcotest.(check bool) "duplicate wins without handling" false
        (Matchset.is_valid r.Naive.matchset)
  | None -> Alcotest.fail "expected a matchset");
  match Dedup.best_valid (Win.best w) p with
  | Some r, stats ->
      Alcotest.(check bool) "valid" true (Matchset.is_valid r.Naive.matchset);
      Alcotest.(check bool) "reran the solver" true (stats.Dedup.invocations > 1);
      Alcotest.(check int) "jingdezhen or ceramics" 20
        (Matchset.min_loc r.Naive.matchset)
  | None, _ -> Alcotest.fail "expected a valid matchset"

let test_no_duplicates_single_invocation () =
  let w = Scoring.win_linear in
  let p = [| [| m 1; m 4 |]; [| m 2; m 7 |] |] in
  let _, stats = Dedup.best_valid (Win.best w) p in
  Alcotest.(check int) "single run" 1 stats.Dedup.invocations

(* The same property over random problems: once no location is shared
   between lists, every matchset is valid, so [best_valid] must be the
   raw solver's answer — same matchset, same score bits — from a single
   solve. Locations are spread apart per list ([loc * n + j]) so the
   generated lists never collide. *)
let disjoint_lists (p : Match_list.problem) =
  let n = Array.length p in
  Array.mapi
    (fun j l ->
      Array.map (fun x -> { x with Match0.loc = (x.Match0.loc * n) + j }) l)
    p

let single_invocation_on_disjoint solver name =
  Gen.qtest ~count:300
    ~name:(Printf.sprintf "dedup(%s) solves once on disjoint locations" name)
    (Gen.problem_arb ~min_terms:1 ~max_terms:4 ())
    (fun p ->
      let p = disjoint_lists p in
      let raw = solver p in
      let got, stats = Dedup.best_valid solver p in
      stats.Dedup.invocations = 1
      &&
      match (raw, got) with
      | None, None -> true
      | Some a, Some b ->
          a.Naive.matchset = b.Naive.matchset
          && Int64.equal
               (Int64.bits_of_float a.Naive.score)
               (Int64.bits_of_float b.Naive.score)
      | Some _, None | None, Some _ -> false)

let test_no_valid_matchset () =
  (* Both lists contain only the same single token. *)
  let w = Scoring.win_linear in
  let p = [| [| m 3 |]; [| m 3 |] |] in
  let r, _ = Dedup.best_valid (Win.best w) p in
  Alcotest.(check bool) "no valid matchset" true (r = None)

let dedup_exact scoring solver name =
  Gen.qtest ~count:400 ~name:(Printf.sprintf "dedup(%s) = naive valid best" name)
    dup_problem_arb
    (fun p ->
      let fast, _ = Dedup.best_valid solver p in
      let oracle = Naive.best_valid scoring p in
      match (fast, oracle) with
      | None, None -> true
      | Some _, None | None, Some _ -> false
      | Some f, Some o ->
          Gen.float_close f.Naive.score o.Naive.score
          && Matchset.is_valid f.Naive.matchset)

let suite =
  let win = Scoring.win_exponential ~alpha:0.1 in
  let med = Scoring.med_exponential ~alpha:0.2 in
  let max = Scoring.max_sum ~alpha:0.1 in
  [
    ("dedup: china example (Sec VI)", `Quick, test_china_example);
    ("dedup: clean input needs one run", `Quick, test_no_duplicates_single_invocation);
    single_invocation_on_disjoint (Win.best win) "WIN";
    single_invocation_on_disjoint (Med.best med) "MED";
    single_invocation_on_disjoint (Max_join.best max) "MAX";
    ("dedup: no valid matchset", `Quick, test_no_valid_matchset);
    dedup_exact (Scoring.Win win) (Win.best win) "WIN";
    dedup_exact (Scoring.Med med) (Med.best med) "MED";
    dedup_exact (Scoring.Max max) (Max_join.best max) "MAX";
  ]
