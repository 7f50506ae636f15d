type pending = {
  anchor : int;
  best : float array;               (* per-term max contribution at anchor *)
  best_match : Match0.t option array;
}

type t = {
  scoring : Scoring.max;
  n_terms : int;
  decay : int -> float;
  stacks : Match0.t Pj_util.Vec.t array;  (* online dominating stacks *)
  pending : pending Queue.t;
  mutable group : (int * Match0.t) list;
  mutable group_loc : int;
  mutable closed : bool;
}

let create scoring ~n_terms ~decay =
  if n_terms < 1 then invalid_arg "Max_stream.create: n_terms < 1";
  {
    scoring;
    n_terms;
    decay;
    stacks = Array.init n_terms (fun _ -> Pj_util.Vec.create ());
    pending = Queue.create ();
    group = [];
    group_loc = min_int;
    closed = false;
  }

let contribution t ~term m ~at = Scoring.max_contribution t.scoring ~term m ~at

(* Algorithm 2's stack step, applied online as matches arrive. *)
let stack_push t ~term m =
  let stack = t.stacks.(term) in
  let c = contribution t ~term in
  let loc = m.Match0.loc in
  if
    Pj_util.Vec.is_empty stack
    || c m ~at:loc >= c (Pj_util.Vec.last stack) ~at:loc
  then begin
    let continue = ref true in
    while !continue && not (Pj_util.Vec.is_empty stack) do
      let top = Pj_util.Vec.last stack in
      if c m ~at:top.Match0.loc >= c top ~at:top.Match0.loc then
        ignore (Pj_util.Vec.pop stack)
      else continue := false
    done;
    Pj_util.Vec.push stack m
  end

let emit t (p : pending) =
  let complete = Array.for_all Option.is_some p.best_match in
  if not complete then None
  else begin
    let matchset = Array.map Option.get p.best_match in
    let total = Array.fold_left ( +. ) 0. p.best in
    Some
      {
        Anchored.anchor = p.anchor;
        matchset;
        score = Scoring.apply t.scoring.Scoring.max_f total;
      }
  end

let settled t (p : pending) ~pos =
  let bound = t.decay (pos - p.anchor) in
  let ok = ref true in
  for j = 0 to t.n_terms - 1 do
    if p.best.(j) < bound then ok := false
  done;
  !ok

let drain t ~pos =
  let out = ref [] in
  let continue = ref true in
  while !continue do
    match Queue.peek_opt t.pending with
    | Some p when pos = max_int || settled t p ~pos ->
        ignore (Queue.pop t.pending);
        (match emit t p with
        | Some e -> out := e :: !out
        | None -> ())
    | Some _ | None -> continue := false
  done;
  List.rev !out

let close_group t =
  match t.group with
  | [] -> ()
  | group ->
      let l = t.group_loc in
      let n = t.n_terms in
      (* The group is strictly right of every older pending anchor. *)
      Queue.iter
        (fun p ->
          List.iter
            (fun (term, m) ->
              let c = contribution t ~term m ~at:p.anchor in
              if c > p.best.(term) then begin
                p.best.(term) <- c;
                p.best_match.(term) <- Some m
              end)
            group)
        t.pending;
      (* Fold the group into the stacks, then freeze the left side of
         the new anchor from the stack tops (each dominates all matches
         seen so far at positions >= its own location). *)
      List.iter (fun (term, m) -> stack_push t ~term m) group;
      let best = Array.make n neg_infinity in
      let best_match = Array.make n None in
      for j = 0 to n - 1 do
        if not (Pj_util.Vec.is_empty t.stacks.(j)) then begin
          let top = Pj_util.Vec.last t.stacks.(j) in
          best.(j) <- contribution t ~term:j top ~at:l;
          best_match.(j) <- Some top
        end
      done;
      Queue.add { anchor = l; best; best_match } t.pending;
      t.group <- []

let feed t ~term m =
  if t.closed then invalid_arg "Max_stream.feed: stream is finished";
  if term < 0 || term >= t.n_terms then
    invalid_arg "Max_stream.feed: bad term index";
  if m.Match0.loc < t.group_loc then
    invalid_arg "Max_stream.feed: locations must be non-decreasing";
  if contribution t ~term m ~at:m.Match0.loc > t.decay 0 +. 1e-12 then
    invalid_arg "Max_stream.feed: contribution above decay 0";
  let emitted =
    if m.Match0.loc > t.group_loc then begin
      close_group t;
      t.group_loc <- m.Match0.loc;
      drain t ~pos:m.Match0.loc
    end
    else []
  in
  t.group <- (term, m) :: t.group;
  emitted

let finish t =
  if t.closed then invalid_arg "Max_stream.finish: stream is finished";
  t.closed <- true;
  close_group t;
  drain t ~pos:max_int

let pending_count t =
  Queue.length t.pending + (match t.group with [] -> 0 | _ -> 1)

let default_decay x (p : Match_list.problem) =
  let s_max = ref 0. in
  Array.iter
    (Array.iter (fun m -> s_max := Float.max !s_max m.Match0.score))
    p;
  let n = Array.length p in
  fun d ->
    let best = ref neg_infinity in
    for j = 0 to n - 1 do
      best := Float.max !best (Scoring.max_g x j !s_max d)
    done;
    !best

let run ?decay x (p : Match_list.problem) =
  Match_list.validate p;
  if Match_list.has_empty_list p then []
  else begin
    let decay =
      match decay with
      | Some f -> f
      | None -> default_decay x p
    in
    let t = create x ~n_terms:(Array.length p) ~decay in
    let out = ref [] in
    Match_list.iter_in_location_order p (fun ~term m ->
        List.iter (fun e -> out := e :: !out) (feed t ~term m));
    List.iter (fun e -> out := e :: !out) (finish t);
    List.rev !out
  end
