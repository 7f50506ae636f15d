(* Score comparisons go through the scoring function's comparison key
   (a strictly increasing transform of f), which keeps e.g.
   exponentials out of the inner subset loop. In [best_valid] and
   [best_ordered], best partial matchsets are shared persistently: each
   state points at the state it extends, so an update is O(1) and the
   final matchset is rebuilt once at the end. *)
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

(* [w]'s comparison key, written out here rather than called through
   Scoring so that the floats stay unboxed in the loop below. *)
let[@inline] key form x y =
  match form with
  | Scoring.Window_penalty { beta; _ } -> x -. (beta *. float_of_int y)
  | Scoring.Win_closures { key; _ } -> key x y

(* [best] holds the full set's members in the order they joined it;
   put each at its term's index. *)
let place_by_term (t : Flat.t) =
  let best = t.Flat.best in
  for i = 0 to t.Flat.n - 1 do
    let j = ref (Flat.term_of t best.(i)) in
    while !j <> i do
      let m = best.(i) in
      best.(i) <- best.(!j);
      best.(!j) <- m;
      j := Flat.term_of t best.(i)
    done
  done

(* Algorithm 1 over the workspace's tables, indexed by subset: [live],
   [g_sum] (a flat float array, so an update stores its float unboxed),
   [l_min], and [members] — row P holds P's members, copied from the
   one-smaller subset on every update, so the best matchset is read
   off the full set's row. A match of [term] updates only the subsets
   containing it, each from P \ {term}, which it leaves alone: so the
   order they are visited in does not matter, and they are enumerated
   inline as [term]'s bit put into each subset of the other terms. *)
let run (w : Scoring.win) (t : Flat.t) =
  if Flat.has_empty_term t then false
  else begin
    let n = t.Flat.n in
    let full = (1 lsl n) - 1 and half = 1 lsl (n - 1) in
    let { Flat.live; g_sum; l_min; members } = t.Flat.win in
    for s = 0 to full do
      live.(s) <- false
    done;
    let form = w.Scoring.win_form in
    let have_best = ref false
    and best_key = ref neg_infinity
    and best_g = ref 0.
    and best_window = ref 0 in
    Flat.merge_start t;
    let next = ref (Flat.merge_next t) in
    while !next >= 0 do
      let m = !next in
      let term = t.Flat.merged_term
      and g = t.Flat.value.(m)
      and l = t.Flat.loc.(m) in
      let bit = 1 lsl term in
      let low = bit - 1 in
      for r = 0 to half - 1 do
        let sub = (r land low) lor ((r land lnot low) lsl 1) in
        let s = sub lor bit in
        if sub = 0 then begin
          (* Best single-term matchset at l: either keep the previous
             best (aged to l) or restart at m with window 0. *)
          if
            (not live.(s)) || key form g_sum.(s) (l - l_min.(s)) < key form g 0
          then begin
            live.(s) <- true;
            g_sum.(s) <- g;
            l_min.(s) <- l;
            members.(s * n) <- m
          end
        end
        else if live.(sub) then begin
          let cand_g = g_sum.(sub) +. g in
          let cand_lmin = l_min.(sub) in
          if
            (not live.(s))
            || key form g_sum.(s) (l - l_min.(s))
               < key form cand_g (l - cand_lmin)
          then begin
            live.(s) <- true;
            g_sum.(s) <- cand_g;
            l_min.(s) <- cand_lmin;
            let row = s * n and from = sub * n
            and size = Pj_util.Subset.cardinal sub in
            for x = 0 to size - 1 do
              members.(row + x) <- members.(from + x)
            done;
            members.(row + size) <- m
          end
        end
      done;
      if live.(full) then begin
        let k = key form g_sum.(full) (l - l_min.(full)) in
        if (not !have_best) || k > !best_key then begin
          have_best := true;
          best_key := k;
          best_g := g_sum.(full);
          best_window := l - l_min.(full);
          for x = 0 to n - 1 do
            t.Flat.best.(x) <- members.((full * n) + x)
          done
        end
      end;
      next := Flat.merge_next t
    done;
    if !have_best then begin
      place_by_term t;
      match form with
      | Scoring.Window_penalty { outer; _ } ->
          t.Flat.result.(0) <- !best_key;
          Scoring.apply_at outer t.Flat.result 0
      | Scoring.Win_closures { f; _ } ->
          t.Flat.result.(0) <- f !best_g !best_window
    end;
    !have_best
  end

let best (w : Scoring.win) (p : Match_list.problem) =
  let t = Flat.of_problem (Scoring.Win w) p in
  if run w t then Some (Flat.result t) else None

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
    let key = Scoring.win_key w in
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
          score = Scoring.win_f w !best_g !best_window;
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
    let key = Scoring.win_key w in
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
          score = Scoring.win_f w !best_g !best_window;
        }
    else None
  end
