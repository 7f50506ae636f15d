type outer =
  | Identity
  | Exp_scaled of float
  | Outer of (float -> float)

let[@inline] apply o x =
  match o with
  | Identity -> x
  | Exp_scaled a -> exp (a *. x)
  | Outer f -> f x

let apply_at o a i = a.(i) <- apply o a.(i)

type win = {
  win_g : int -> float -> float;
  win_form : win_form;
  win_name : string;
}

and win_form =
  | Window_penalty of { beta : float; outer : outer }
  | Win_closures of {
      key : float -> int -> float;
      f : float -> int -> float;
    }

let win_key w x y =
  match w.win_form with
  | Window_penalty { beta; _ } -> x -. (beta *. float_of_int y)
  | Win_closures { key; _ } -> key x y

let win_f w x y =
  match w.win_form with
  | Window_penalty { beta; outer } -> apply outer (x -. (beta *. float_of_int y))
  | Win_closures { f; _ } -> f x y

let score_win w (m : Matchset.t) =
  let gsum = ref 0. in
  Array.iteri (fun j x -> gsum := !gsum +. w.win_g j x.Match0.score) m;
  win_f w !gsum (Matchset.window m)

let win_exponential ~alpha =
  {
    win_g = (fun _ x -> log x);
    win_form = Window_penalty { beta = alpha; outer = Exp_scaled 1. };
    win_name = Printf.sprintf "WIN-exp(%.2g)" alpha;
  }

let win_linear =
  {
    win_g = (fun _ x -> x /. 0.3);
    win_form = Window_penalty { beta = 1.; outer = Identity };
    win_name = "WIN-linear";
  }

type med = {
  med_g : int -> float -> float;
  med_f : outer;
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
  apply d.med_f !sum

let med_exponential ~alpha =
  {
    med_g = (fun _ x -> log x /. alpha);
    med_f = Exp_scaled alpha;
    med_name = Printf.sprintf "MED-exp(%.2g)" alpha;
  }

let med_linear =
  { med_g = (fun _ x -> x /. 0.3); med_f = Identity; med_name = "MED-linear" }

type max = {
  max_form : max_form;
  max_f : outer;
  max_name : string;
}

and max_form =
  | Decay of { g : int -> float -> float; alpha : float }
  | Contribution of (int -> float -> int -> float)

let max_g x j score d =
  match x.max_form with
  | Decay { g; alpha } -> g j score *. exp (-.alpha *. float_of_int d)
  | Contribution c -> c j score d

let max_contribution x ~term m ~at =
  max_g x term m.Match0.score (abs (m.Match0.loc - at))

let score_max_at x (m : Matchset.t) ~at =
  let sum = ref 0. in
  Array.iteri (fun j mm -> sum := !sum +. max_contribution x ~term:j mm ~at) m;
  apply x.max_f !sum

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
    max_form =
      Contribution (fun _ x d -> log x -. (alpha *. float_of_int d));
    max_f = Exp_scaled 1.;
    max_name = Printf.sprintf "MAX-prod(%.2g)" alpha;
  }

let max_sum ~alpha =
  {
    max_form = Decay { g = (fun _ x -> x); alpha };
    max_f = Identity;
    max_name = Printf.sprintf "MAX-sum(%.2g)" alpha;
  }

let max_gaussian_sum ~alpha =
  {
    max_form =
      Contribution
        (fun _ x d ->
          let d = float_of_int d in
          x *. exp (-.alpha *. d *. d));
    max_f = Identity;
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

let g t j score =
  match t with
  | Win w -> w.win_g j score
  | Med d -> d.med_g j score
  | Max { max_form = Decay { g; _ }; _ } -> g j score
  | Max { max_form = Contribution _; _ } -> score

let score t m =
  match t with
  | Win w -> score_win w m
  | Med d -> score_med d m
  | Max x -> score_max x m

(* Plain loops over the per-term values, no closure call for the data
   forms: the searcher takes this bound for every candidate. *)
let upper_bound t values =
  let n = Array.length values in
  let acc = ref 0. in
  match t with
  | Win w ->
      for j = 0 to n - 1 do
        acc := !acc +. values.(j)
      done;
      win_f w !acc 0
  | Med d ->
      for j = 0 to n - 1 do
        acc := !acc +. values.(j)
      done;
      apply d.med_f !acc
  | Max ({ max_form = Decay { alpha; _ }; _ } as x) ->
      for j = 0 to n - 1 do
        acc := !acc +. (values.(j) *. exp (-.alpha *. float_of_int 0))
      done;
      apply x.max_f !acc
  | Max ({ max_form = Contribution c; _ } as x) ->
      for j = 0 to n - 1 do
        acc := !acc +. c j values.(j) 0
      done;
      apply x.max_f !acc
