open Pj_core

let m ?(score = 1.) loc = Match0.make ~loc ~score ()

let test_switch_heuristic () =
  Alcotest.(check bool) "skewed input switches" true
    (Best_join.switch_to_naive [| [| m 1; m 2; m 3 |]; [| m 4 |]; [| m 5 |] |]);
  Alcotest.(check bool) "two fat lists do not" false
    (Best_join.switch_to_naive [| [| m 1; m 2 |]; [| m 4; m 6 |] |])

let scorings =
  [
    Scoring.Win (Scoring.win_exponential ~alpha:0.1);
    Scoring.Med (Scoring.med_exponential ~alpha:0.2);
    Scoring.Max (Scoring.max_sum ~alpha:0.1);
  ]

let solve_agrees_across_algorithms scoring =
  Gen.qtest ~count:200
    ~name:
      (Printf.sprintf "solve Fast = Naive_alg = Auto [%s]" (Scoring.name scoring))
    (Gen.problem_arb ~max_terms:3 ~max_len:5 ())
    (fun p ->
      let get a = Best_join.solve ~algorithm:a scoring p in
      match (get Best_join.Fast, get Best_join.Naive_alg, get Best_join.Auto) with
      | None, None, None -> true
      | Some a, Some b, Some c ->
          Gen.float_close a.Naive.score b.Naive.score
          && Gen.float_close b.Naive.score c.Naive.score
      | _ -> false)

let dedup_flag_gives_valid scoring =
  Gen.qtest ~count:200
    ~name:(Printf.sprintf "solve ~dedup returns valid [%s]" (Scoring.name scoring))
    (Gen.problem_arb ~min_terms:2 ~max_terms:3 ~max_len:4 ~max_loc:5 ())
    (fun p ->
      match Best_join.solve ~dedup:true scoring p with
      | None -> true
      | Some r -> Matchset.is_valid r.Naive.matchset)

let test_stats_exposed () =
  let scoring = Scoring.Win (Scoring.win_exponential ~alpha:0.1) in
  let p = [| [| m 3; m ~score:0.2 9 |]; [| m 3; m ~score:0.2 10 |]; [| m 3; m ~score:0.2 8 |] |] in
  let _, stats = Best_join.solve_with_stats scoring p in
  Alcotest.(check bool) "reran" true (stats.Dedup.invocations >= 2)

let test_by_location_dispatch () =
  let p = [| [| m 1; m 5 |]; [| m 2 |] |] in
  List.iter
    (fun scoring ->
      Alcotest.(check bool)
        (Printf.sprintf "by_location non-empty [%s]" (Scoring.name scoring))
        true
        (Best_join.by_location scoring p <> []))
    scorings

(* A searcher run's solve path: one workspace for the run; per
   candidate, the problem rebuilt in it from its expansion forms'
   positions, the family's solver, and a matchset built only for a hit
   the top-k admits. Every candidate here carries the same 3-term
   problem (term 0 interleaving two forms), so only the first [k] are
   admitted and later ties lose. The loop allocates within a constant
   plus those matchsets, however many candidates it solves. *)
let served_solve_allocation scoring () =
  let scores = [| 1.0; 0.4 |] and payloads = [| 7; 8 |] in
  let values = Array.init 3 (fun j -> Array.map (Scoring.g scoring j) scores) in
  let forms = [| [| [| 3; 40 |]; [| 7; 41 |] |]; [| [| 5 |] |]; [| [| 9; 12 |] |] |] in
  let problem =
    Array.map
      (fun term_forms ->
        Match_list.of_unsorted
          (Array.concat
             (Array.to_list
                (Array.mapi
                   (fun form positions ->
                     Array.map
                       (fun loc ->
                         Match0.make ~payload:payloads.(form) ~loc
                           ~score:scores.(form) ())
                       positions)
                   term_forms))))
      forms
  in
  let expected =
    match Best_join.solve ~dedup:true scoring problem with
    | Some r -> r
    | None -> Alcotest.fail "no matchset"
  in
  let t = Flat.create scoring ~n_terms:3 in
  let k = 10 and candidates = 5_000 in
  let admitted = ref [] and n_admitted = ref 0 and solved = ref 0 in
  let words0 = Gc.minor_words () in
  for _ = 1 to candidates do
    Flat.clear t;
    for j = 0 to 2 do
      for form = 0 to Array.length forms.(j) - 1 do
        Flat.add_form t forms.(j).(form) ~form ~scores ~values:values.(j)
          ~payloads
      done;
      Flat.close_term t
    done;
    if Best_join.run t && Flat.best_is_valid t then begin
      incr solved;
      if !n_admitted < k then begin
        incr n_admitted;
        admitted := Flat.matchset t :: !admitted
      end
    end
  done;
  let words = Gc.minor_words () -. words0 in
  Alcotest.(check int) "every candidate solved" candidates !solved;
  Alcotest.(check bool) "the solve's score" true
    (Int64.bits_of_float t.Flat.result.(0)
    = Int64.bits_of_float expected.Naive.score);
  List.iter
    (fun ms ->
      Alcotest.(check bool) "the solve's matchset" true
        (Matchset.equal ms expected.Naive.matchset))
    !admitted;
  let budget = 256. +. (64. *. float_of_int !n_admitted) in
  if words > budget then
    Alcotest.failf "%s: %.0f words for %d candidates (budget %.0f)"
      (Scoring.name scoring) words candidates budget

let suite =
  [
    ("best_join: switch heuristic", `Quick, test_switch_heuristic);
    ("best_join: dedup stats exposed", `Quick, test_stats_exposed);
    ("best_join: by_location dispatch", `Quick, test_by_location_dispatch);
  ]
  @ List.map solve_agrees_across_algorithms scorings
  @ List.map dedup_flag_gives_valid scorings
  @ List.map
      (fun scoring ->
        ( Printf.sprintf "best_join: served solve allocates per admitted hit only [%s]"
            (Scoring.name scoring),
          `Quick,
          served_solve_allocation scoring ))
      scorings
