let contribution (x : Scoring.max) ~term : Envelope.contribution =
 fun m l -> Scoring.max_contribution x ~term m ~at:l

let dominating_lists x (p : Match_list.problem) =
  Array.mapi (fun j l -> Envelope.dominating_list (contribution x ~term:j) l) p

let best (x : Scoring.max) (p : Match_list.problem) =
  Match_list.validate p;
  if Match_list.has_empty_list p then None
  else begin
    let n = Array.length p in
    let doms = dominating_lists x p in
    let cursors =
      Array.init n (fun j -> Envelope.cursor (contribution x ~term:j) doms.(j))
    in
    let best = ref None in
    let candidate = Array.make n (Match0.make ~loc:0 ~score:0. ()) in
    (* Evaluate the envelope sum at every match location. The
       maximized-at-match property guarantees the optimum reference point
       is the location of some member of the best matchset, and every
       member location appears in the scan. *)
    let consider ~term:_ m =
      let l = m.Match0.loc in
      let total = ref 0. in
      for j = 0 to n - 1 do
        (* lists are non-empty, so every dominating list is too *)
        let v = Envelope.value_at cursors.(j) l in
        candidate.(j) <- Envelope.chosen cursors.(j);
        total := !total +. v
      done;
      let s = x.Scoring.max_f !total in
      match !best with
      | Some r when r.Naive.score >= s -> ()
      | _ -> best := Some { Naive.matchset = Array.copy candidate; score = s }
    in
    Match_list.iter_in_location_order p consider;
    !best
  end

let best_anchored ~anchor_term (x : Scoring.max) (p : Match_list.problem) =
  Match_list.validate p;
  let n = Array.length p in
  if anchor_term < 0 || anchor_term >= n then
    invalid_arg "Max_join.best_anchored: bad anchor term";
  if Match_list.has_empty_list p then None
  else begin
    let doms = dominating_lists x p in
    let cursors =
      Array.init n (fun j -> Envelope.cursor (contribution x ~term:j) doms.(j))
    in
    let best = ref None in
    let candidate = Array.make n (Match0.make ~loc:0 ~score:0. ()) in
    (* The anchor term's matches are visited in location order, so the
       other terms' envelope cursors advance monotonically. *)
    Array.iter
      (fun m ->
        let l = m.Match0.loc in
        candidate.(anchor_term) <- m;
        let total = ref (contribution x ~term:anchor_term m l) in
        for j = 0 to n - 1 do
          if j <> anchor_term then begin
            match Envelope.query cursors.(j) l with
            | None -> assert false (* lists are non-empty *)
            | Some pick ->
                candidate.(j) <- pick.Envelope.chosen;
                total := !total +. pick.Envelope.value
          end
        done;
        let s = x.Scoring.max_f !total in
        match !best with
        | Some r when r.Naive.score >= s -> ()
        | _ -> best := Some { Naive.matchset = Array.copy candidate; score = s })
      p.(anchor_term);
    !best
  end

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
        let s = x.Scoring.max_f !total in
        match !best with
        | Some r when r.Naive.score >= s -> ()
        | _ -> best := Some { Naive.matchset = Array.copy candidate; score = s }
      end
    done;
    !best
  end
