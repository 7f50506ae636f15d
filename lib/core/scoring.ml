type win = {
  win_g : int -> float -> float;
  win_f : float -> int -> float;
  win_key : float -> int -> float;
  win_name : string;
}

let score_win w (m : Matchset.t) =
  let gsum = ref 0. in
  Array.iteri (fun j x -> gsum := !gsum +. w.win_g j x.Match0.score) m;
  w.win_f !gsum (Matchset.window m)

let win_exponential ~alpha =
  {
    win_g = (fun _ x -> log x);
    win_f = (fun x y -> exp (x -. (alpha *. float_of_int y)));
    win_key = (fun x y -> x -. (alpha *. float_of_int y));
    win_name = Printf.sprintf "WIN-exp(%.2g)" alpha;
  }

let win_linear =
  let f x y = x -. float_of_int y in
  {
    win_g = (fun _ x -> x /. 0.3);
    win_f = f;
    win_key = f;
    win_name = "WIN-linear";
  }

type med = {
  med_g : int -> float -> float;
  med_f : float -> float;
  med_name : string;
}

let med_contribution d ~term m ~at =
  d.med_g term m.Match0.score -. float_of_int (abs (m.Match0.loc - at))

let score_med d (m : Matchset.t) =
  let median = Matchset.median_loc m in
  let sum = ref 0. in
  for j = 0 to Array.length m - 1 do
    sum := !sum +. med_contribution d ~term:j m.(j) ~at:median
  done;
  d.med_f !sum

let med_exponential ~alpha =
  {
    med_g = (fun _ x -> log x /. alpha);
    med_f = (fun x -> exp (alpha *. x));
    med_name = Printf.sprintf "MED-exp(%.2g)" alpha;
  }

let med_linear =
  {
    med_g = (fun _ x -> x /. 0.3);
    med_f = (fun x -> x);
    med_name = "MED-linear";
  }

type max = {
  max_g : int -> float -> int -> float;
  max_f : float -> float;
  max_name : string;
}

let max_contribution x ~term m ~at =
  x.max_g term m.Match0.score (abs (m.Match0.loc - at))

let score_max_at x (m : Matchset.t) ~at =
  let sum = ref 0. in
  Array.iteri (fun j mm -> sum := !sum +. max_contribution x ~term:j mm ~at) m;
  x.max_f !sum

let score_max x (m : Matchset.t) =
  (* Maximized-at-match (Definition 8): the optimum reference point is at
     one of the member locations, so scanning those is exact for the
     instances we ship (Lemma 3). *)
  let best = ref neg_infinity in
  Array.iter
    (fun anchor ->
      let s = score_max_at x m ~at:anchor.Match0.loc in
      if s > !best then best := s)
    m;
  !best

let max_product ~alpha =
  {
    max_g = (fun _ x d -> log x -. (alpha *. float_of_int d));
    max_f = exp;
    max_name = Printf.sprintf "MAX-prod(%.2g)" alpha;
  }

let max_sum ~alpha =
  {
    max_g = (fun _ x d -> x *. exp (-.alpha *. float_of_int d));
    max_f = (fun x -> x);
    max_name = Printf.sprintf "MAX-sum(%.2g)" alpha;
  }

let max_gaussian_sum ~alpha =
  {
    max_g =
      (fun _ x d ->
        let d = float_of_int d in
        x *. exp (-.alpha *. d *. d));
    max_f = (fun x -> x);
    max_name = Printf.sprintf "MAX-gauss(%.2g)" alpha;
  }

let score_max_in_range x (m : Matchset.t) ~lo ~hi =
  let best = ref neg_infinity in
  for l = lo to hi do
    let s = score_max_at x m ~at:l in
    if s > !best then best := s
  done;
  !best

type t =
  | Win of win
  | Med of med
  | Max of max

let name = function
  | Win w -> w.win_name
  | Med d -> d.med_name
  | Max x -> x.max_name

let score t m =
  match t with
  | Win w -> score_win w m
  | Med d -> score_med d m
  | Max x -> score_max x m

(* Plain loops, no closure or captured accumulator: the searcher takes
   this bound for every candidate. *)
let upper_bound t best_scores =
  let n = Array.length best_scores in
  let acc = ref 0. in
  match t with
  | Win w ->
      for j = 0 to n - 1 do
        acc := !acc +. w.win_g j best_scores.(j)
      done;
      w.win_f !acc 0
  | Med d ->
      for j = 0 to n - 1 do
        acc := !acc +. d.med_g j best_scores.(j)
      done;
      d.med_f !acc
  | Max x ->
      for j = 0 to n - 1 do
        acc := !acc +. x.max_g j best_scores.(j) 0
      done;
      x.max_f !acc
