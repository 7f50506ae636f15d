let dominating_lists x p = Flat.dominating_lists (Scoring.Max x) p

(* Evaluate the envelope sum at every match location. The
   maximized-at-match property guarantees the optimum reference point is
   the location of some member of the best matchset, and every member
   location appears in the scan. *)
let run (x : Scoring.max) (t : Flat.t) =
  if Flat.has_empty_term t then false
  else begin
    let n = t.Flat.n in
    let e = Flat.prepare_envelope t in
    let have_best = ref false and best_score = ref 0. in
    Flat.merge_start t;
    let next = ref (Flat.merge_next t) in
    while !next >= 0 do
      let l = t.Flat.loc.(!next) in
      let total = ref 0. in
      for j = 0 to n - 1 do
        (* lists are non-empty, so every dominating list is too *)
        Envelope.advance e j l;
        total := !total +. e.Envelope.height.(j)
      done;
      let r = t.Flat.result in
      r.(1) <- !total;
      Scoring.apply_at x.Scoring.max_f r 1;
      let s = r.(1) in
      if not (!have_best && !best_score >= s) then begin
        have_best := true;
        best_score := s;
        for j = 0 to n - 1 do
          t.Flat.best.(j) <- e.Envelope.chosen.(j)
        done
      end;
      next := Flat.merge_next t
    done;
    if !have_best then t.Flat.result.(0) <- !best_score;
    !have_best
  end

let best (x : Scoring.max) (p : Match_list.problem) =
  let t = Flat.of_problem (Scoring.Max x) p in
  if run x t then Some (Flat.result t) else None

let best_anchored ~anchor_term (x : Scoring.max) (p : Match_list.problem) =
  Match_list.validate p;
  let n = Array.length p in
  if anchor_term < 0 || anchor_term >= n then
    invalid_arg "Max_join.best_anchored: bad anchor term";
  if Match_list.has_empty_list p then None
  else begin
    let t = Flat.of_problem (Scoring.Max x) p in
    let e = Flat.prepare_envelope t in
    let best = ref None in
    let candidate = Array.make n (Match0.make ~loc:0 ~score:0. ()) in
    (* The anchor term's matches are visited in location order, so the
       other terms' envelope cursors advance monotonically. *)
    for i = t.Flat.first.(anchor_term) to t.Flat.first.(anchor_term + 1) - 1 do
      let l = t.Flat.loc.(i) in
      candidate.(anchor_term) <- Flat.match_at t i;
      let total = ref (Scoring.max_g x anchor_term t.Flat.score.(i) 0) in
      for j = 0 to n - 1 do
        if j <> anchor_term then begin
          Envelope.advance e j l;
          candidate.(j) <- Flat.match_at t e.Envelope.chosen.(j);
          total := !total +. e.Envelope.height.(j)
        end
      done;
      let s = Scoring.apply x.Scoring.max_f !total in
      match !best with
      | Some r when r.Naive.score >= s -> ()
      | _ -> best := Some { Naive.matchset = Array.copy candidate; score = s }
    done;
    !best
  end

let contribution (x : Scoring.max) ~term : Envelope.contribution =
 fun m l -> Scoring.max_contribution x ~term m ~at:l

let best_general (x : Scoring.max) (p : Match_list.problem) =
  Match_list.validate p;
  if Match_list.has_empty_list p then None
  else begin
    let n = Array.length p in
    let locs = Match_list.locations p in
    let lo = locs.(0) and hi = locs.(Array.length locs - 1) in
    let pairs =
      Array.init n (fun j ->
          Envelope.interval_pairs (contribution x ~term:j) p.(j) ~lo ~hi)
    in
    (* U_j as an array over the location range for O(1) lookup. *)
    let table =
      Array.map
        (fun segs ->
          let t = Array.make (hi - lo + 1) None in
          List.iter
            (fun (a, b, m) ->
              for l = a to b do
                t.(l - lo) <- Some m
              done)
            segs;
          t)
        pairs
    in
    let best = ref None in
    let candidate = Array.make n (Match0.make ~loc:0 ~score:0. ()) in
    for l = lo to hi do
      let total = ref 0. in
      let feasible = ref true in
      for j = 0 to n - 1 do
        match table.(j).(l - lo) with
        | None -> feasible := false
        | Some m ->
            candidate.(j) <- m;
            total := !total +. contribution x ~term:j m l
      done;
      if !feasible then begin
        let s = Scoring.apply x.Scoring.max_f !total in
        match !best with
        | Some r when r.Naive.score >= s -> ()
        | _ -> best := Some { Naive.matchset = Array.copy candidate; score = s }
      end
    done;
    !best
  end
