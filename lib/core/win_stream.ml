(* The streaming form of Algorithm 1 extended for the
   best-matchset-by-location problem: the subset DP of Win, fed one
   match at a time, with one result emitted per closed location. All
   matches sharing a location are buffered and folded into the DP
   together before the location's result is computed, because a
   matchset anchored at l may contain several matches at l. *)

type chain =
  | Nil
  | Cons of int * Match0.t * chain

type state = {
  mutable live : bool;
  mutable g_sum : float;
  mutable l_min : int;
  mutable members : chain;
}

type t = {
  scoring : Scoring.win;
  n_terms : int;
  states : state array;          (* indexed by nonempty term subsets *)
  mutable group : (int * Match0.t) list;  (* buffered co-located matches *)
  mutable group_loc : int;
  mutable closed : bool;
}

let create scoring ~n_terms =
  if n_terms < 1 then invalid_arg "Win_stream.create: n_terms < 1";
  let full = Pj_util.Subset.full n_terms in
  {
    scoring;
    n_terms;
    states =
      Array.init (full + 1) (fun _ ->
          { live = false; g_sum = 0.; l_min = 0; members = Nil });
    group = [];
    group_loc = min_int;
    closed = false;
  }

let rebuild n chain =
  let a = Array.make n None in
  let rec walk = function
    | Nil -> ()
    | Cons (j, m, rest) ->
        a.(j) <- Some m;
        walk rest
  in
  walk chain;
  Array.map
    (function
      | Some m -> m
      | None -> assert false)
    a

(* Fold one match into the DP at its location (Algorithm 1's update). *)
let update t ~term m =
  let w = t.scoring in
  let key = Scoring.win_key w in
  let g = w.Scoring.win_g term m.Match0.score in
  let l = m.Match0.loc in
  Pj_util.Subset.iter_by_decreasing_size t.n_terms (fun s ->
      if Pj_util.Subset.mem term s then begin
        let st = t.states.(s) in
        if Pj_util.Subset.equal s (Pj_util.Subset.singleton term) then begin
          if (not st.live) || key st.g_sum (l - st.l_min) < key g 0 then begin
            st.live <- true;
            st.g_sum <- g;
            st.l_min <- l;
            st.members <- Cons (term, m, Nil)
          end
        end
        else begin
          let sub = t.states.(Pj_util.Subset.remove term s) in
          if sub.live then begin
            if
              (not st.live)
              || key st.g_sum (l - st.l_min)
                 < key (sub.g_sum +. g) (l - sub.l_min)
            then begin
              st.live <- true;
              st.g_sum <- sub.g_sum +. g;
              st.l_min <- sub.l_min;
              st.members <- Cons (term, m, sub.members)
            end
          end
        end
      end)

(* Close the buffered location: fold its matches in, then emit the best
   matchset anchored there — some match of the group completed by the
   best partial matchset over the other terms. *)
let close_group t =
  match t.group with
  | [] -> None
  | group ->
      let w = t.scoring in
      let l = t.group_loc in
      let full = Pj_util.Subset.full t.n_terms in
      List.iter (fun (term, m) -> update t ~term m) (List.rev group);
      t.group <- [];
      let best = ref None in
      List.iter
        (fun (term, m) ->
          let g = w.Scoring.win_g term m.Match0.score in
          let candidate =
            if t.n_terms = 1 then
              Some (g, 0, Cons (term, m, Nil))
            else begin
              let sub = t.states.(Pj_util.Subset.remove term full) in
              if sub.live then
                Some (sub.g_sum +. g, l - sub.l_min, Cons (term, m, sub.members))
              else None
            end
          in
          match candidate with
          | None -> ()
          | Some (g_sum, window, ch) -> begin
              let k = Scoring.win_key w g_sum window in
              match !best with
              | Some (k', _, _, _) when k' >= k -> ()
              | _ -> best := Some (k, g_sum, window, ch)
            end)
        group;
      match !best with
      | None -> None
      | Some (_, g_sum, window, ch) ->
          Some
            {
              Anchored.anchor = l;
              matchset = rebuild t.n_terms ch;
              score = Scoring.win_f w g_sum window;
            }

let feed t ~term m =
  if t.closed then invalid_arg "Win_stream.feed: stream is finished";
  if term < 0 || term >= t.n_terms then
    invalid_arg "Win_stream.feed: bad term index";
  if m.Match0.loc < t.group_loc then
    invalid_arg "Win_stream.feed: locations must be non-decreasing";
  let emitted =
    if m.Match0.loc > t.group_loc then begin
      let e = close_group t in
      t.group_loc <- m.Match0.loc;
      e
    end
    else None
  in
  t.group <- (term, m) :: t.group;
  emitted

let finish t =
  if t.closed then invalid_arg "Win_stream.finish: stream is finished";
  t.closed <- true;
  close_group t

let run scoring (p : Match_list.problem) =
  Match_list.validate p;
  if Match_list.has_empty_list p then []
  else begin
    let t = create scoring ~n_terms:(Array.length p) in
    let out = ref [] in
    Match_list.iter_in_location_order p (fun ~term m ->
        match feed t ~term m with
        | Some e -> out := e :: !out
        | None -> ());
    (match finish t with
    | Some e -> out := e :: !out
    | None -> ());
    List.rev !out
  end
