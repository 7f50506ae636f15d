(* Best partial matchsets are shared persistently: each state points at
   the state it extends, so an update is O(1) and the final matchset is
   rebuilt once at the end. Score comparisons go through the scoring
   function's comparison key (a strictly increasing transform of f),
   which keeps e.g. exponentials out of the inner subset loop. *)
type chain =
  | Nil
  | Cons of int * Match0.t * chain  (* term, match, rest *)

type state = {
  mutable live : bool;       (* is there a P-matchset yet? *)
  mutable g_sum : float;     (* sum of g_j over the members *)
  mutable l_min : int;       (* smallest member location *)
  mutable members : chain;
}

(* The matchset a full-set chain describes: one member per term. *)
let rebuild n chain =
  match chain with
  | Nil -> invalid_arg "Win.rebuild: empty chain"
  | Cons (_, m0, _) ->
      let a = Array.make n m0 in
      let rec walk = function
        | Nil -> ()
        | Cons (j, m, rest) ->
            a.(j) <- m;
            walk rest
      in
      walk chain;
      a

(* Per term, the subsets containing it, larger before smaller — the
   order [Subset.iter_by_decreasing_size] visits them in, enumerated
   once per solve instead of once per match. *)
let visiting_orders n =
  let orders = Array.init n (fun _ -> Array.make (1 lsl (n - 1)) 0)
  and filled = Array.make n 0 in
  Pj_util.Subset.iter_by_decreasing_size n (fun s ->
      for term = 0 to n - 1 do
        if Pj_util.Subset.mem term s then begin
          orders.(term).(filled.(term)) <- s;
          filled.(term) <- filled.(term) + 1
        end
      done);
  orders

(* Algorithm 1 with the state table held column-wise — [live], [g_sum]
   (a flat float array), [l_min], [members] indexed by subset — so a
   state update stores its float unboxed instead of allocating a box. *)
let best (w : Scoring.win) (p : Match_list.problem) =
  Match_list.validate p;
  if Match_list.has_empty_list p then None
  else begin
    let n = Array.length p in
    let full = Pj_util.Subset.full n in
    let live = Array.make (full + 1) false
    and g_sum = Array.make (full + 1) 0.
    and l_min = Array.make (full + 1) 0
    and members = Array.make (full + 1) Nil in
    let orders = visiting_orders n in
    let key = w.Scoring.win_key in
    (* best key and its g sum, unboxed *)
    let best_kg = [| neg_infinity; 0. |] in
    let best_window = ref 0 in
    let best_chain = ref Nil in
    let have_best = ref false in
    let process ~term m =
      let g = w.Scoring.win_g term m.Match0.score in
      let l = m.Match0.loc in
      (* Visit subsets containing [term] from larger to smaller so that
         P \ {term} still holds its value at the previous location. *)
      let order = orders.(term) in
      for k = 0 to Array.length order - 1 do
        let s = order.(k) in
        if Pj_util.Subset.equal s (Pj_util.Subset.singleton term) then begin
          (* Best single-term matchset at l: either keep the previous
             best (aged to l) or restart at m with window 0. *)
          if (not live.(s)) || key g_sum.(s) (l - l_min.(s)) < key g 0
          then begin
            live.(s) <- true;
            g_sum.(s) <- g;
            l_min.(s) <- l;
            members.(s) <- Cons (term, m, Nil)
          end
        end
        else begin
          let sub = Pj_util.Subset.remove term s in
          if live.(sub) then begin
            let cand_g = g_sum.(sub) +. g in
            let cand_lmin = l_min.(sub) in
            if
              (not live.(s))
              || key g_sum.(s) (l - l_min.(s)) < key cand_g (l - cand_lmin)
            then begin
              live.(s) <- true;
              g_sum.(s) <- cand_g;
              l_min.(s) <- cand_lmin;
              members.(s) <- Cons (term, m, members.(sub))
            end
          end
        end
      done;
      if live.(full) then begin
        let k = key g_sum.(full) (l - l_min.(full)) in
        if (not !have_best) || k > best_kg.(0) then begin
          have_best := true;
          best_kg.(0) <- k;
          best_kg.(1) <- g_sum.(full);
          best_window := l - l_min.(full);
          best_chain := members.(full)
        end
      end
    in
    Match_list.iter_in_location_order p process;
    if !have_best then
      Some
        {
          Naive.matchset = rebuild n !best_chain;
          score = w.Scoring.win_f best_kg.(1) !best_window;
        }
    else None
  end

(* Extension beyond the paper's Section VI wrapper: an exact
   duplicate-aware variant of Algorithm 1 in the same O(2^|Q| sum |L|)
   bound. A valid matchset uses at most one match per location, so it is
   enough to process matches one location group at a time and extend
   only the states as they were before the group: within a group, a
   match can then never join a partial matchset containing a co-located
   match. The cut-and-paste optimality argument carries over unchanged,
   with groups in place of single matches. *)
let best_valid (w : Scoring.win) (p : Match_list.problem) =
  Match_list.validate p;
  if Match_list.has_empty_list p then None
  else begin
    let n = Array.length p in
    let full = Pj_util.Subset.full n in
    let states =
      Array.init (full + 1) (fun _ ->
          { live = false; g_sum = 0.; l_min = 0; members = Nil })
    in
    let snapshot =
      Array.init (full + 1) (fun _ ->
          { live = false; g_sum = 0.; l_min = 0; members = Nil })
    in
    let key = w.Scoring.win_key in
    let best_key = ref neg_infinity in
    let best_g = ref 0. in
    let best_window = ref 0 in
    let best_chain = ref Nil in
    let have_best = ref false in
    (* Collect the matches of one location group, then fold them in. *)
    let group : (int * Match0.t) list ref = ref [] in
    let group_loc = ref min_int in
    let flush_group () =
      match !group with
      | [] -> ()
      | members ->
          let l = !group_loc in
          for s = 0 to full do
            let st = states.(s) and sn = snapshot.(s) in
            sn.live <- st.live;
            sn.g_sum <- st.g_sum;
            sn.l_min <- st.l_min;
            sn.members <- st.members
          done;
          (* Extensions read the snapshot (pre-group states), so no two
             co-located matches can enter the same partial matchset. *)
          List.iter
            (fun (term, m) ->
              let g = w.Scoring.win_g term m.Match0.score in
              Pj_util.Subset.iter_nonempty n (fun s ->
                  if Pj_util.Subset.mem term s then begin
                    let st = states.(s) in
                    let consider cand_g cand_lmin cand_members =
                      if
                        (not st.live)
                        || key st.g_sum (l - st.l_min)
                           < key cand_g (l - cand_lmin)
                      then begin
                        st.live <- true;
                        st.g_sum <- cand_g;
                        st.l_min <- cand_lmin;
                        st.members <- cand_members
                      end
                    in
                    if Pj_util.Subset.equal s (Pj_util.Subset.singleton term)
                    then consider g l (Cons (term, m, Nil))
                    else begin
                      let sub = snapshot.(Pj_util.Subset.remove term s) in
                      if sub.live then
                        consider (sub.g_sum +. g) sub.l_min
                          (Cons (term, m, sub.members))
                    end
                  end))
            members;
          let q = states.(full) in
          if q.live then begin
            let k = key q.g_sum (l - q.l_min) in
            if (not !have_best) || k > !best_key then begin
              have_best := true;
              best_key := k;
              best_g := q.g_sum;
              best_window := l - q.l_min;
              best_chain := q.members
            end
          end;
          group := []
    in
    Match_list.iter_in_location_order p (fun ~term m ->
        if m.Match0.loc <> !group_loc then begin
          flush_group ();
          group_loc := m.Match0.loc
        end;
        group := (term, m) :: !group);
    flush_group ();
    if !have_best then
      Some
        {
          Naive.matchset = rebuild n !best_chain;
          score = w.Scoring.win_f !best_g !best_window;
        }
    else None
  end

(* Order-constrained variant: members must appear in query-term order,
   so a partial matchset is always a prefix {q_1..q_k} and the DP keeps
   one state per prefix. When processing a match for term k at location
   l, it can only extend the best (k-1)-prefix at a location <= l —
   which is exactly the prefix state at the previous processing step,
   by the same cut-and-paste argument as Algorithm 1. Ties in location
   are processed in increasing term order so that a term-k match can
   extend a co-located term-(k-1) match (the constraint is non-strict). *)
let iter_by_location_then_term (p : Match_list.problem) f =
  let all = Pj_util.Vec.create () in
  Array.iteri
    (fun term l -> Array.iter (fun m -> Pj_util.Vec.push all (term, m)) l)
    p;
  let arr = Pj_util.Vec.to_array all in
  Array.sort
    (fun (ta, ma) (tb, mb) ->
      let c = compare ma.Match0.loc mb.Match0.loc in
      if c <> 0 then c
      else begin
        let c = compare ta tb in
        if c <> 0 then c else Match0.compare_by_loc ma mb
      end)
    arr;
  Array.iter (fun (term, m) -> f ~term m) arr

let best_ordered (w : Scoring.win) (p : Match_list.problem) =
  Match_list.validate p;
  if Match_list.has_empty_list p then None
  else begin
    let n = Array.length p in
    (* states.(k): best ordered matchset over terms 0..k. *)
    let states =
      Array.init n (fun _ ->
          { live = false; g_sum = 0.; l_min = 0; members = Nil })
    in
    let key = w.Scoring.win_key in
    let best_key = ref neg_infinity in
    let best_g = ref 0. in
    let best_window = ref 0 in
    let best_chain = ref Nil in
    let have_best = ref false in
    let process ~term m =
      let g = w.Scoring.win_g term m.Match0.score in
      let l = m.Match0.loc in
      let st = states.(term) in
      if term = 0 then begin
        if (not st.live) || key st.g_sum (l - st.l_min) < key g 0 then begin
          st.live <- true;
          st.g_sum <- g;
          st.l_min <- l;
          st.members <- Cons (term, m, Nil)
        end
      end
      else begin
        let sub = states.(term - 1) in
        if sub.live then begin
          let cand_g = sub.g_sum +. g in
          if
            (not st.live)
            || key st.g_sum (l - st.l_min) < key cand_g (l - sub.l_min)
          then begin
            st.live <- true;
            st.g_sum <- cand_g;
            st.l_min <- sub.l_min;
            st.members <- Cons (term, m, sub.members)
          end
        end
      end;
      let q = states.(n - 1) in
      if q.live then begin
        let k = key q.g_sum (l - q.l_min) in
        if (not !have_best) || k > !best_key then begin
          have_best := true;
          best_key := k;
          best_g := q.g_sum;
          best_window := l - q.l_min;
          best_chain := q.members
        end
      end
    in
    iter_by_location_then_term p process;
    if !have_best then
      Some
        {
          Naive.matchset = rebuild n !best_chain;
          score = w.Scoring.win_f !best_g !best_window;
        }
    else None
  end
