let dominating_lists d p = Flat.dominating_lists (Scoring.Med d) p

(* Algorithm 2 checks that the current match is the median of the
   assembled candidate before considering it; that check is brittle under
   location ties (co-located matches shift ranks without shifting the
   median value). We use a strictly stronger and simpler criterion
   instead: score every dominating candidate definitionally. This is
   exact because, writing C(l) for the candidate of dominating matches at
   location l and S_j for the contribution upper envelopes,

     score_MED (C(l)) = f (sum_j c_j (C_j, median C(l)))
                     >= f (sum_j c_j (C_j, l))          (the median of a
                        matchset minimizes its total distance, so moving
                        the reference point to median C(l) cannot lower
                        the sum)
                      = f (sum_j S_j (l)),

   while for the median location l0 of an overall best matchset M
   (which consists of dominating matches at l0 by Lemma 1),

     f (sum_j S_j (l0)) >= f (sum_j c_j (M_j, l0)) = score_MED (M).

   Hence score_MED (C(l0)) reaches the optimum, every candidate scores at
   most the optimum, and the best candidate over all match locations is
   an overall best matchset. *)
let run (d : Scoring.med) (t : Flat.t) =
  if Flat.has_empty_term t then false
  else begin
    let n = t.Flat.n in
    let e = Flat.prepare_envelope t and ranks = t.Flat.ranks in
    let have_best = ref false and best_score = ref 0. in
    let last_location = ref min_int in
    Flat.merge_start t;
    let next = ref (Flat.merge_next t) in
    while !next >= 0 do
      let l = t.Flat.loc.(!next) in
      if l <> !last_location then begin
        last_location := l;
        (* The candidate C(l), scored definitionally: its median is
           the floor((n+1)/2)-th largest member location (footnote 2),
           found by insertion into [ranks]. *)
        for j = 0 to n - 1 do
          Envelope.advance e j l;
          let v = t.Flat.loc.(e.Envelope.chosen.(j)) in
          let k = ref j in
          while !k > 0 && ranks.(!k - 1) < v do
            ranks.(!k) <- ranks.(!k - 1);
            decr k
          done;
          ranks.(!k) <- v
        done;
        let median = ranks.(((n + 1) / 2) - 1) in
        let sum = ref 0. in
        for j = 0 to n - 1 do
          let c = e.Envelope.chosen.(j) in
          sum :=
            !sum
            +. (t.Flat.value.(c) -. float_of_int (abs (t.Flat.loc.(c) - median)))
        done;
        let r = t.Flat.result in
        r.(1) <- !sum;
        Scoring.apply_at d.Scoring.med_f r 1;
        let s = r.(1) in
        if not (!have_best && !best_score >= s) then begin
          have_best := true;
          best_score := s;
          for j = 0 to n - 1 do
            t.Flat.best.(j) <- e.Envelope.chosen.(j)
          done
        end
      end;
      next := Flat.merge_next t
    done;
    if !have_best then t.Flat.result.(0) <- !best_score;
    !have_best
  end

let best (d : Scoring.med) (p : Match_list.problem) =
  let t = Flat.of_problem (Scoring.Med d) p in
  if run d t then Some (Flat.result t) else None
