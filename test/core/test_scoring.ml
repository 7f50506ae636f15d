open Pj_core

let m ?(score = 1.) loc = Match0.make ~loc ~score ()

let check_float = Alcotest.(check (float 1e-9))

let test_window () =
  Alcotest.(check int) "window" 7 (Matchset.window [| m 3; m 10; m 5 |]);
  Alcotest.(check int) "window singleton" 0 (Matchset.window [| m 4 |])

let test_median_odd () =
  (* floor((3+1)/2) = 2nd greatest of {3,10,5} = 5 *)
  Alcotest.(check int) "median odd" 5 (Matchset.median_loc [| m 3; m 10; m 5 |])

let test_median_even () =
  (* floor((4+1)/2) = 2nd greatest of {1,9,4,6} = 6 *)
  Alcotest.(check int) "median even" 6
    (Matchset.median_loc [| m 1; m 9; m 4; m 6 |])

let test_median_pair () =
  (* floor((2+1)/2) = 1st greatest = the larger location *)
  Alcotest.(check int) "median pair" 9 (Matchset.median_loc [| m 2; m 9 |])

let test_median_ties () =
  Alcotest.(check int) "median ties" 5 (Matchset.median_loc [| m 5; m 5; m 2 |])

let test_validity () =
  Alcotest.(check bool) "valid" true (Matchset.is_valid [| m 1; m 2 |]);
  Alcotest.(check bool) "duplicate" false
    (Matchset.is_valid [| m ~score:0.4 3; m ~score:0.9 3 |])

let test_win_exponential () =
  (* Eq. (1): (prod scores) * exp (-alpha * window). *)
  let w = Scoring.win_exponential ~alpha:0.1 in
  let ms = [| m ~score:0.5 0; m ~score:0.8 4 |] in
  check_float "win exp" (0.5 *. 0.8 *. exp (-0.4)) (Scoring.score_win w ms)

let test_win_linear () =
  let ms = [| m ~score:0.3 2; m ~score:0.6 7 |] in
  check_float "win linear"
    ((0.3 /. 0.3) +. (0.6 /. 0.3) -. 5.)
    (Scoring.score_win Scoring.win_linear ms)

let test_med_exponential () =
  (* Eq. (3): prod (score_j * exp (-alpha |loc_j - median|)). *)
  let d = Scoring.med_exponential ~alpha:0.2 in
  let ms = [| m ~score:0.5 0; m ~score:0.8 4; m ~score:1.0 6 |] in
  (* median = 4; distances 4, 0, 2. *)
  let expected =
    0.5 *. exp (-0.2 *. 4.) *. (0.8 *. exp 0.) *. (1.0 *. exp (-0.2 *. 2.))
  in
  check_float "med exp" expected (Scoring.score_med d ms)

let test_med_linear () =
  let ms = [| m ~score:0.3 1; m ~score:0.9 5; m ~score:0.6 8 |] in
  (* median = 5; contributions: 1 - 4, 3 - 0, 2 - 3. *)
  check_float "med linear" (1. -. 4. +. 3. +. (2. -. 3.))
    (Scoring.score_med Scoring.med_linear ms)

let test_max_sum () =
  (* Eq. (5) on a pair: best reference point is a member location. *)
  let x = Scoring.max_sum ~alpha:0.1 in
  let ms = [| m ~score:0.9 0; m ~score:0.2 10 |] in
  let at0 = 0.9 +. (0.2 *. exp (-1.)) in
  let at10 = (0.9 *. exp (-1.)) +. 0.2 in
  check_float "max sum at 0" at0 (Scoring.score_max_at x ms ~at:0);
  check_float "max sum" (Float.max at0 at10) (Scoring.score_max x ms)

let test_max_product () =
  let x = Scoring.max_product ~alpha:0.1 in
  let ms = [| m ~score:0.9 0; m ~score:0.2 10 |] in
  (* Under the product form, any l between the two matches gives the same
     score exp (ln 0.9 + ln 0.2 - alpha * 10): the total distance to the
     two ends is constant inside the window. *)
  let expected = 0.9 *. 0.2 *. exp (-1.) in
  check_float "max product" expected (Scoring.score_max x ms)

let test_max_anchor_prefers_heavy () =
  (* MAX anchors near the high-scoring match: with a heavy match at 0,
     the score at 0 beats the score at the light match. *)
  let x = Scoring.max_sum ~alpha:0.5 in
  let ms = [| m ~score:1.0 0; m ~score:0.1 6 |] in
  let at_heavy = Scoring.score_max_at x ms ~at:0 in
  let at_light = Scoring.score_max_at x ms ~at:6 in
  Alcotest.(check bool) "anchored at heavy" true (at_heavy > at_light)

let test_fig2_med_distinguishes () =
  (* Figure 2: equal windows, different clusteredness. WIN cannot tell
     the two matchsets apart; MED scores the clustered one higher. *)
  let spread = [| m 0; m 4; m 8; m 12 |] in
  let clustered = [| m 0; m 10; m 11; m 12 |] in
  let w = Scoring.win_exponential ~alpha:0.1 in
  let d = Scoring.med_exponential ~alpha:0.1 in
  Alcotest.(check bool) "same window" true
    (Matchset.window spread = Matchset.window clustered);
  check_float "win equal" (Scoring.score_win w spread)
    (Scoring.score_win w clustered);
  Alcotest.(check bool) "med prefers clustered" true
    (Scoring.score_med d clustered > Scoring.score_med d spread)

(* --- data forms against closures ------------------------------------ *)

(* Each served instance as its data form and as the reference closures
   over the same equation. *)
let served =
  [
    ( "WIN",
      fun alpha ->
        ( Scoring.Win (Scoring.win_exponential ~alpha),
          Scoring.Win (Pj_reference.win_exponential ~alpha) ) );
    ( "MED",
      fun alpha ->
        ( Scoring.Med (Scoring.med_exponential ~alpha),
          Scoring.Med (Pj_reference.med_exponential ~alpha) ) );
    ( "MAX",
      fun alpha ->
        ( Scoring.Max (Scoring.max_sum ~alpha),
          Scoring.Max (Pj_reference.max_sum ~alpha) ) );
  ]

let bits x = Int64.bits_of_float x

let same_result a b =
  match (a, b) with
  | None, None -> true
  | Some (x : Naive.result), Some (y : Naive.result) ->
      bits x.score = bits y.score && Matchset.equal x.matchset y.matchset
  | _ -> false

(* The protocol's alphas (the benchmark draws from these) or any other
   in (0, 2]. *)
let alpha_gen =
  QCheck.Gen.(oneof [ oneofl [ 0.05; 0.1; 0.2 ]; float_range 0.01 2. ])

(* On problems with score ties and co-located matches (within and
   across lists), the data form scores every matchset, solves (with and
   without the duplicate handler), and bounds exactly as the closures
   do; and its bound is at least the score of every valid matchset. *)
let data_form_is_closures (family, instances) =
  Gen.qtest ~count:300
    ~name:(Printf.sprintf "data form = closures, bit for bit [%s]" family)
    (QCheck.make
       ~print:(fun (alpha, p) -> Printf.sprintf "alpha %h\n%s" alpha (Gen.pp_problem p))
       QCheck.Gen.(
         pair alpha_gen (Gen.problem_gen ~max_terms:4 ~max_len:4 ~max_loc:8 ())))
    (fun (alpha, p) ->
      let data, closures = instances alpha in
      let every_matchset = ref true in
      Naive.iter_matchsets p (fun ms ->
          if bits (Scoring.score data ms) <> bits (Scoring.score closures ms)
          then every_matchset := false);
      let values scoring =
        Array.mapi
          (fun j l ->
            Scoring.g scoring j
              (Array.fold_left (fun acc m -> Float.max acc m.Match0.score) 0. l))
          p
      in
      let bound = Scoring.upper_bound data (values data) in
      let dominated = ref true in
      Naive.iter_matchsets p (fun ms ->
          if Matchset.is_valid ms && Scoring.score data ms > bound then
            dominated := false);
      let fast = Best_join.solve data p in
      let definitional =
        match (fast, Naive.best closures p) with
        | None, None -> true
        | Some f, Some o ->
            (* MED's solver scores its candidate definitionally; WIN and
               MAX sum in another order *)
            let exact = match data with Scoring.Med _ -> true | _ -> false in
            let s = Scoring.score closures f.Naive.matchset in
            (if exact then bits f.Naive.score = bits s
             else Gen.float_close f.Naive.score s)
            && Gen.float_close f.Naive.score o.Naive.score
        | _ -> false
      in
      !every_matchset && definitional
      && same_result (Naive.best data p) (Naive.best closures p)
      && same_result fast (Best_join.solve closures p)
      && same_result
           (Best_join.solve ~dedup:true data p)
           (Best_join.solve ~dedup:true closures p)
      && bits bound = bits (Scoring.upper_bound closures (values closures))
      && !dominated)

let suite =
  [
    ("matchset: window", `Quick, test_window);
    ("matchset: median odd", `Quick, test_median_odd);
    ("matchset: median even", `Quick, test_median_even);
    ("matchset: median pair", `Quick, test_median_pair);
    ("matchset: median ties", `Quick, test_median_ties);
    ("matchset: validity", `Quick, test_validity);
    ("scoring: WIN exponential (Eq 1)", `Quick, test_win_exponential);
    ("scoring: WIN linear (footnote 9)", `Quick, test_win_linear);
    ("scoring: MED exponential (Eq 3)", `Quick, test_med_exponential);
    ("scoring: MED linear (footnote 9)", `Quick, test_med_linear);
    ("scoring: MAX sum (Eq 5)", `Quick, test_max_sum);
    ("scoring: MAX product (Eq 4)", `Quick, test_max_product);
    ("scoring: MAX anchors near heavy match", `Quick, test_max_anchor_prefers_heavy);
    ("scoring: Fig 2 MED vs WIN", `Quick, test_fig2_med_distinguishes);
  ]
  @ List.map data_form_is_closures served
