type win_tables = {
  live : bool array;
  g_sum : float array;
  l_min : int array;
  members : int array;
}

type t = {
  scoring : Scoring.t;
  n : int;
  first : int array;
  mutable len : int;
  mutable closed : int;
  mutable loc : int array;
  mutable score : float array;
  mutable payload : int array;
  mutable value : float array;
  head : int array;
  mutable merged_term : int;
  win : win_tables;
  envelope : Envelope.t;
  best : int array;
  result : float array;
  ranks : int array;
}

let win_tables n =
  let states = Pj_util.Subset.full n + 1 in
  {
    live = Array.make states false;
    g_sum = Array.make states 0.;
    l_min = Array.make states 0;
    members = Array.make (states * n) 0;
  }

let no_win_tables = { live = [||]; g_sum = [||]; l_min = [||]; members = [||] }

(* WIN's workspaces share one envelope with no terms, never prepared. *)
let no_envelope = Envelope.create Envelope.Tent ~n_terms:0

let create scoring ~n_terms:n =
  let envelope kind = Envelope.create kind ~n_terms:n in
  let win, envelope, ranks =
    match scoring with
    | Scoring.Win _ -> (win_tables n, no_envelope, [||])
    | Scoring.Med _ ->
        (no_win_tables, envelope Envelope.Tent, Array.make n 0)
    | Scoring.Max { max_form = Scoring.Decay { alpha; _ }; _ } ->
        (no_win_tables, envelope (Envelope.Decay alpha), [||])
    | Scoring.Max { max_form = Scoring.Contribution c; _ } ->
        (no_win_tables, envelope (Envelope.Contribution c), [||])
  in
  {
    scoring;
    n;
    first = Array.make (n + 1) 0;
    len = 0;
    closed = 0;
    loc = [||];
    score = [||];
    payload = [||];
    value = [||];
    head = Array.make n 0;
    merged_term = -1;
    win;
    envelope;
    best = Array.make n 0;
    result = [| 0.; 0. |];
    ranks;
  }

(* --- building ----------------------------------------------------------- *)

let clear t =
  t.len <- 0;
  t.closed <- 0

(* Room for [k] more matches: the arrays start empty and at least
   double, so a query's workspace stops growing after its first few
   candidates, and a one-problem workspace is sized to its problem. *)
let reserve t k =
  let need = t.len + k in
  if need > Array.length t.loc then begin
    let cap = Stdlib.max need (2 * Array.length t.loc) in
    let grow a b =
      if t.len > 0 then Array.blit a 0 b 0 t.len;
      b
    in
    t.loc <- grow t.loc (Array.make cap 0);
    t.score <- grow t.score (Array.make cap 0.);
    t.payload <- grow t.payload (Array.make cap 0);
    t.value <- grow t.value (Array.make cap 0.)
  end

let add_form t positions ~form ~scores ~values ~payloads =
  let k = Array.length positions in
  reserve t k;
  let s = scores.(form) and v = values.(form) and p = payloads.(form) in
  for i = 0 to k - 1 do
    let at = t.len + i in
    t.loc.(at) <- positions.(i);
    t.score.(at) <- s;
    t.value.(at) <- v;
    t.payload.(at) <- p
  done;
  t.len <- t.len + k

let seal_term t =
  t.closed <- t.closed + 1;
  t.first.(t.closed) <- t.len

let move t ~src ~dst =
  t.loc.(dst) <- t.loc.(src);
  t.score.(dst) <- t.score.(src);
  t.value.(dst) <- t.value.(src);
  t.payload.(dst) <- t.payload.(src)

(* Several forms' positions interleave: an insertion sort by location
   over the term's few matches. *)
let close_term t =
  let a = t.first.(t.closed) in
  for i = a + 1 to t.len - 1 do
    let loc = t.loc.(i) in
    if loc < t.loc.(i - 1) then begin
      let score = t.score.(i)
      and value = t.value.(i)
      and payload = t.payload.(i) in
      let k = ref i in
      while !k > a && loc < t.loc.(!k - 1) do
        move t ~src:(!k - 1) ~dst:!k;
        decr k
      done;
      t.loc.(!k) <- loc;
      t.score.(!k) <- score;
      t.value.(!k) <- value;
      t.payload.(!k) <- payload
    end
  done;
  seal_term t

let load t (p : Match_list.problem) =
  Match_list.validate p;
  if Array.length p <> t.n then invalid_arg "Flat.load: term count differs";
  clear t;
  reserve t (Match_list.total_size p);
  for j = 0 to t.n - 1 do
    let l = p.(j) in
    for k = 0 to Array.length l - 1 do
      let m = l.(k) and at = t.len + k in
      t.loc.(at) <- m.Match0.loc;
      t.score.(at) <- m.Match0.score;
      t.value.(at) <- Scoring.g t.scoring j m.Match0.score;
      t.payload.(at) <- m.Match0.payload
    done;
    t.len <- t.len + Array.length l;
    seal_term t
  done

let of_problem scoring (p : Match_list.problem) =
  let t = create scoring ~n_terms:(Array.length p) in
  load t p;
  t

(* --- reading ------------------------------------------------------------ *)

let match_at t i =
  { Match0.loc = t.loc.(i); score = t.score.(i); payload = t.payload.(i) }

let term_of t i =
  let j = ref 0 in
  while t.first.(!j + 1) <= i do
    incr j
  done;
  !j

let has_empty_term t =
  let empty = ref false in
  for j = 0 to t.n - 1 do
    if t.first.(j) = t.first.(j + 1) then empty := true
  done;
  !empty

let prepare_envelope t =
  Envelope.prepare t.envelope ~loc:t.loc ~value:t.value ~first:t.first;
  t.envelope

let dominating_lists scoring p =
  let t = of_problem scoring p in
  let e = prepare_envelope t in
  Array.init t.n (fun j -> Array.map (match_at t) (Envelope.dominating e j))

let merge_start t =
  for j = 0 to t.n - 1 do
    t.head.(j) <- t.first.(j)
  done

(* [Match0.compare_by_loc] on two loaded matches. *)
let[@inline] compare_matches t a b =
  if t.loc.(a) <> t.loc.(b) then Int.compare t.loc.(a) t.loc.(b)
  else
    let c = Float.compare t.score.(a) t.score.(b) in
    if c <> 0 then c else Int.compare t.payload.(a) t.payload.(b)

(* The smallest head among the terms' lists; ties by
   [compare_matches], then term. *)
let merge_next t =
  let best = ref (-1) in
  for j = t.n - 1 downto 0 do
    let h = t.head.(j) in
    if h < t.first.(j + 1) then
      if !best = -1 then best := j
      else begin
        let c = compare_matches t h t.head.(!best) in
        if c < 0 || (c = 0 && j < !best) then best := j
      end
  done;
  let j = !best in
  if j < 0 then -1
  else begin
    let i = t.head.(j) in
    t.head.(j) <- i + 1;
    t.merged_term <- j;
    i
  end

let best_is_valid t =
  let ok = ref true in
  for a = 0 to t.n - 1 do
    for b = a + 1 to t.n - 1 do
      if t.loc.(t.best.(a)) = t.loc.(t.best.(b)) then ok := false
    done
  done;
  !ok

let matchset t = Array.init t.n (fun j -> match_at t t.best.(j))

let result t = { Naive.matchset = matchset t; score = t.result.(0) }

let problem t =
  Array.init t.n (fun j ->
      Array.init (t.first.(j + 1) - t.first.(j)) (fun k ->
          match_at t (t.first.(j) + k)))
