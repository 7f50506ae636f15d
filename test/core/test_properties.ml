open Pj_core

(* Structural properties the paper relies on, checked by qcheck. *)

let matchset_gen ~n ~max_loc =
  QCheck.Gen.(
    map Array.of_list (list_repeat n (Gen.match_gen ~max_loc)))

let matchset_arb ~n ~max_loc =
  QCheck.make
    ~print:(fun m -> Format.asprintf "%a" Matchset.pp m)
    (matchset_gen ~n ~max_loc)

(* Section VIII: "for queries with three terms or less, the scoring
   functions WIN and MED are actually identical" — for the footnote-9
   instances, whose g's agree and whose f's are both linear. *)
let win_equals_med_small n =
  Gen.qtest ~count:500
    ~name:(Printf.sprintf "WIN-linear = MED-linear at %d terms" n)
    (matchset_arb ~n ~max_loc:30)
    (fun m ->
      Gen.float_close
        (Scoring.score_win Scoring.win_linear m)
        (Scoring.score_med Scoring.med_linear m))

let win_differs_from_med_at_four =
  (* At 4+ terms the equality genuinely breaks (Figure 2's point). *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000
       ~name:"WIN-linear <> MED-linear somewhere at 4 terms"
       (QCheck.make (QCheck.Gen.return ()))
       (fun () ->
         let m =
           [|
             Match0.make ~loc:0 ~score:1. ();
             Match0.make ~loc:10 ~score:1. ();
             Match0.make ~loc:11 ~score:1. ();
             Match0.make ~loc:12 ~score:1. ();
           |]
         in
         not
           (Gen.float_close
              (Scoring.score_win Scoring.win_linear m)
              (Scoring.score_med Scoring.med_linear m))))

(* Definition 3's required properties of the shipped WIN instances. *)
let win_instance_properties w =
  Gen.qtest ~count:500
    ~name:(Printf.sprintf "WIN instance properties [%s]" w.Scoring.win_name)
    QCheck.(
      quad (float_bound_exclusive 1.) (float_bound_exclusive 1.)
        (int_bound 40) (int_bound 40))
    (fun (s1, s2, y1, y2) ->
      let s1 = Float.max 0.01 s1 and s2 = Float.max 0.01 s2 in
      let x1 = w.Scoring.win_g 0 s1 and x2 = w.Scoring.win_g 0 s2 in
      let lo_x = Float.min x1 x2 and hi_x = Float.max x1 x2 in
      let lo_y = Stdlib.min y1 y2 and hi_y = Stdlib.max y1 y2 in
      let f = Scoring.win_f w in
      (* monotone in x, antitone in y *)
      f hi_x lo_y >= f lo_x lo_y
      && f lo_x hi_y <= f lo_x lo_y
      (* optimal substructure: adding the same delta preserves order *)
      && begin
           let delta = 0.25 in
           let a = f lo_x lo_y and b = f hi_x hi_y in
           if a >= b then
             f (lo_x +. delta) lo_y >= f (hi_x +. delta) hi_y
             && f lo_x (lo_y + 3) >= f hi_x (hi_y + 3)
           else true
         end
      (* the comparison key orders pairs exactly like f *)
      && begin
           let k = Scoring.win_key w in
           compare (f lo_x lo_y) (f hi_x hi_y)
           = compare (k lo_x lo_y) (k hi_x hi_y)
         end)

(* Definition 8: at-most-one-crossing for the shipped MAX instances —
   the contribution difference of two matches changes sign at most once
   over the location axis. *)
let at_most_one_crossing x =
  Gen.qtest ~count:500
    ~name:
      (Printf.sprintf "at-most-one-crossing [%s]" x.Scoring.max_name)
    (QCheck.make
       QCheck.Gen.(pair (Gen.match_gen ~max_loc:30) (Gen.match_gen ~max_loc:30)))
    (fun (m1, m2) ->
      let sign_changes = ref 0 in
      let last_sign = ref 0 in
      for l = -10 to 40 do
        let d =
          Scoring.max_contribution x ~term:0 m1 ~at:l
          -. Scoring.max_contribution x ~term:0 m2 ~at:l
        in
        let s = if d > 1e-12 then 1 else if d < -1e-12 then -1 else 0 in
        if s <> 0 then begin
          if !last_sign <> 0 && s <> !last_sign then incr sign_changes;
          last_sign := s
        end
      done;
      !sign_changes <= 1)

(* Definition 8: maximized-at-match — the continuous maximum over
   reference points is attained at some member location. *)
let maximized_at_match x =
  Gen.qtest ~count:300
    ~name:(Printf.sprintf "maximized-at-match [%s]" x.Scoring.max_name)
    (matchset_arb ~n:3 ~max_loc:25)
    (fun m ->
      let at_members = Scoring.score_max x m in
      let everywhere = ref neg_infinity in
      for l = -5 to 30 do
        everywhere := Float.max !everywhere (Scoring.score_max_at x m ~at:l)
      done;
      Gen.float_close at_members !everywhere || at_members >= !everywhere)

(* MED's reference point: the definitional median minimizes the total
   distance, hence maximizes the contribution sum (the fact our
   simplified Algorithm 2 rests on). *)
let median_maximizes_med_sum =
  let d = Scoring.med_linear in
  Gen.qtest ~count:500 ~name:"median maximizes the MED contribution sum"
    (matchset_arb ~n:4 ~max_loc:25)
    (fun m ->
      let sum_at l =
        let acc = ref 0. in
        Array.iteri
          (fun j x -> acc := !acc +. Scoring.med_contribution d ~term:j x ~at:l)
          m;
        !acc
      in
      let at_median = sum_at (Matchset.median_loc m) in
      let ok = ref true in
      for l = 0 to 25 do
        if sum_at l > at_median +. 1e-9 then ok := false
      done;
      !ok)

(* Definition 8's maximized-at-match requirement is necessary: Gaussian
   decay is at-most-one-crossing yet peaks between two equal matches, so
   the member-location scan underestimates the continuous maximum and
   the general envelope approach must be used instead. *)
let gaussian_breaks_maximized_at_match () =
  let x = Scoring.max_gaussian_sum ~alpha:0.5 in
  let ms = [| Match0.make ~loc:0 ~score:1. (); Match0.make ~loc:2 ~score:1. () |] in
  let at_members = Scoring.score_max x ms in
  let in_range = Scoring.score_max_in_range x ms ~lo:(-2) ~hi:4 in
  Alcotest.(check bool) "midpoint beats member locations" true
    (in_range > at_members +. 1e-6);
  Alcotest.(check (float 1e-9)) "midpoint value" (2. *. exp (-0.5))
    (Scoring.score_max_at x ms ~at:1)

let gaussian_is_one_crossing =
  let x = Scoring.max_gaussian_sum ~alpha:0.3 in
  Gen.qtest ~count:500 ~name:"gaussian decay is still at-most-one-crossing"
    (QCheck.make
       QCheck.Gen.(pair (Gen.match_gen ~max_loc:30) (Gen.match_gen ~max_loc:30)))
    (fun (m1, m2) ->
      let sign_changes = ref 0 in
      let last_sign = ref 0 in
      for l = -10 to 40 do
        let d =
          Scoring.max_contribution x ~term:0 m1 ~at:l
          -. Scoring.max_contribution x ~term:0 m2 ~at:l
        in
        let s = if d > 1e-12 then 1 else if d < -1e-12 then -1 else 0 in
        if s <> 0 then begin
          if !last_sign <> 0 && s <> !last_sign then incr sign_changes;
          last_sign := s
        end
      done;
      !sign_changes <= 1)

let general_handles_gaussian () =
  (* On the counterexample instance, only the general approach finds the
     midpoint optimum. *)
  let x = Scoring.max_gaussian_sum ~alpha:0.5 in
  let p =
    [| [| Match0.make ~loc:0 ~score:1. () |];
       [| Match0.make ~loc:2 ~score:1. () |] |]
  in
  match (Max_join.best_general x p, Max_join.best x p) with
  | Some g, Some s ->
      Alcotest.(check (float 1e-9)) "general finds the midpoint" (2. *. exp (-0.5))
        g.Naive.score;
      Alcotest.(check bool) "specialized underestimates here" true
        (s.Naive.score < g.Naive.score)
  | _ -> Alcotest.fail "expected results"

(* Scoring.upper_bound must dominate every matchset's score (the search
   pruning soundness condition). *)
let upper_bound_dominates scoring =
  Gen.qtest ~count:400
    ~name:
      (Printf.sprintf "upper_bound dominates all matchsets [%s]"
         (Scoring.name scoring))
    (Gen.problem_arb ~max_terms:3 ~max_len:4 ~allow_empty:false ())
    (fun p ->
      let best_scores =
        Array.map
          (fun l ->
            Array.fold_left (fun acc m -> Float.max acc m.Match0.score) 0. l)
          p
      in
      let bound =
        Scoring.upper_bound scoring (Array.mapi (Scoring.g scoring) best_scores)
      in
      let ok = ref true in
      Naive.iter_matchsets p (fun ms ->
          if Scoring.score scoring ms > bound +. 1e-9 then ok := false);
      !ok)

(* The duplicate handler must not re-run on duplicate-free problems. *)
let dedup_single_run_when_clean =
  let w = Scoring.win_exponential ~alpha:0.1 in
  Gen.qtest ~count:400 ~name:"dedup runs once on duplicate-free input"
    (Gen.problem_arb ~max_terms:3 ~max_len:5 ~allow_empty:false ())
    (fun p ->
      Match_list.duplicate_count p > 0
      ||
      let _, stats = Dedup.best_valid (Win.best w) p in
      stats.Dedup.invocations = 1)

let count_matchsets_test () =
  let mk n = Array.init n (fun i -> Match0.make ~loc:i ~score:1. ()) in
  Alcotest.(check int) "3*2*4" 24
    (Naive.count_matchsets [| mk 3; mk 2; mk 4 |]);
  Alcotest.(check int) "empty list" 0 (Naive.count_matchsets [| mk 3; mk 0 |])

let suite =
  [
    win_equals_med_small 2;
    win_equals_med_small 3;
    win_differs_from_med_at_four;
    win_instance_properties (Scoring.win_exponential ~alpha:0.1);
    win_instance_properties Scoring.win_linear;
    at_most_one_crossing (Scoring.max_product ~alpha:0.1);
    at_most_one_crossing (Scoring.max_sum ~alpha:0.1);
    maximized_at_match (Scoring.max_product ~alpha:0.1);
    maximized_at_match (Scoring.max_sum ~alpha:0.1);
    median_maximizes_med_sum;
    ("gaussian: breaks maximized-at-match", `Quick, gaussian_breaks_maximized_at_match);
    gaussian_is_one_crossing;
    ("gaussian: general approach handles it", `Quick, general_handles_gaussian);
    upper_bound_dominates (Scoring.Win (Scoring.win_exponential ~alpha:0.1));
    upper_bound_dominates (Scoring.Med Scoring.med_linear);
    upper_bound_dominates (Scoring.Max (Scoring.max_sum ~alpha:0.1));
    dedup_single_run_when_clean;
    ("naive: count matchsets", `Quick, count_matchsets_test);
  ]
