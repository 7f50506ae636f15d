open Pj_core

(* The envelope is checked against the brute-force pointwise maximum for
   both contribution shapes used in the paper: the MED tent (slope 1)
   and the MAX exponential-decay contributions of Eq. (4) and Eq. (5). *)

let med_contribution : Envelope.contribution =
 fun m l -> m.Match0.score -. float_of_int (abs (m.Match0.loc - l))

let max_sum_contribution : Envelope.contribution =
 fun m l -> m.Match0.score *. exp (-0.1 *. float_of_int (abs (m.Match0.loc - l)))

let max_prod_contribution : Envelope.contribution =
 fun m l -> log m.Match0.score -. (0.1 *. float_of_int (abs (m.Match0.loc - l)))

(* Each shape as the scoring whose envelope it is: the served stack
   pass and cursor ([Flat], [Envelope]) are checked against the
   closure's pointwise maximum. *)
let tent_scoring =
  Scoring.Med
    { Scoring.med_g = (fun _ x -> x); med_f = Scoring.Identity; med_name = "tent" }

let contributions =
  [
    ("MED tent", tent_scoring, med_contribution);
    ("MAX sum", Scoring.Max (Scoring.max_sum ~alpha:0.1), max_sum_contribution);
    ( "MAX product",
      Scoring.Max (Scoring.max_product ~alpha:0.1),
      max_prod_contribution );
  ]

(* One term's envelope over [lst]. *)
let envelope scoring lst =
  let t = Flat.of_problem scoring [| lst |] in
  (t, Flat.prepare_envelope t)

let envelope_matches_pointwise (name, scoring, c) =
  Gen.qtest ~count:500
    ~name:(Printf.sprintf "envelope cursor = pointwise max [%s]" name)
    (QCheck.make
       ~print:(fun l -> Gen.pp_problem [| l |])
       (Gen.nonempty_list_gen ~max_len:8 ~max_loc:20))
    (fun lst ->
      let _, e = envelope scoring lst in
      let ok = ref true in
      for l = 0 to 20 do
        Envelope.advance e 0 l;
        if
          not
            (Gen.float_close e.Envelope.height.(0) (Envelope.pointwise_max c lst l))
        then ok := false
      done;
      !ok)

let dominating_list_is_subsequence (name, scoring, _) =
  Gen.qtest ~count:300
    ~name:(Printf.sprintf "dominating list is a location-sorted subset [%s]" name)
    (QCheck.make
       ~print:(fun l -> Gen.pp_problem [| l |])
       (Gen.nonempty_list_gen ~max_len:8 ~max_loc:20))
    (fun lst ->
      let t, e = envelope scoring lst in
      let doms = Array.map (Flat.match_at t) (Envelope.dominating e 0) in
      let sorted = ref true in
      for i = 1 to Array.length doms - 1 do
        if doms.(i - 1).Match0.loc > doms.(i).Match0.loc then sorted := false
      done;
      let member m = Array.exists (fun x -> Match0.equal x m) lst in
      !sorted && Array.for_all member doms)

let interval_pairs_cover (name, _, c) =
  Gen.qtest ~count:200
    ~name:(Printf.sprintf "interval pairs attain the envelope [%s]" name)
    (QCheck.make
       ~print:(fun l -> Gen.pp_problem [| l |])
       (Gen.nonempty_list_gen ~max_len:6 ~max_loc:15))
    (fun lst ->
      let pairs = Envelope.interval_pairs c lst ~lo:0 ~hi:15 in
      (* Segments tile [0, 15] in order and each segment's match attains
         the pointwise maximum throughout the segment. *)
      let expected_start = ref 0 in
      List.for_all
        (fun (a, b, m) ->
          let tiles = a = !expected_start && b >= a in
          expected_start := b + 1;
          let attains = ref true in
          for l = a to b do
            if not (Gen.float_close (c m l) (Envelope.pointwise_max c lst l))
            then attains := false
          done;
          tiles && !attains)
        pairs
      && !expected_start = 16)

let test_empty_list () =
  let _, e = envelope tent_scoring [||] in
  Alcotest.(check int) "empty dominating list" 0
    (Array.length (Envelope.dominating e 0));
  Alcotest.check_raises "query on empty"
    (Invalid_argument "Envelope.advance: empty dominating list") (fun () ->
      Envelope.advance e 0 3)

let test_tie_prefers_successor () =
  (* Two identical-score matches equidistant from the query location:
     the later one must be chosen (footnote 3). *)
  let a = Match0.make ~loc:0 ~score:1. () in
  let b = Match0.make ~loc:10 ~score:1. () in
  let t, e = envelope tent_scoring [| a; b |] in
  Envelope.advance e 0 5;
  Alcotest.(check int) "successor chosen" 10
    t.Flat.loc.(e.Envelope.chosen.(0))

let suite =
  [
    ("envelope: empty list", `Quick, test_empty_list);
    ("envelope: tie prefers successor", `Quick, test_tie_prefers_successor);
  ]
  @ List.map envelope_matches_pointwise contributions
  @ List.map dominating_list_is_subsequence contributions
  @ List.map interval_pairs_cover contributions
