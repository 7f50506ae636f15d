let contribution (d : Scoring.med) ~term : Envelope.contribution =
 fun m l -> Scoring.med_contribution d ~term m ~at:l

let dominating_lists d (p : Match_list.problem) =
  Array.mapi (fun j l -> Envelope.dominating_list (contribution d ~term:j) l) p

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
let best (d : Scoring.med) (p : Match_list.problem) =
  Match_list.validate p;
  if Match_list.has_empty_list p then None
  else begin
    let n = Array.length p in
    let doms = dominating_lists d p in
    let cursors =
      Array.init n (fun j -> Envelope.cursor (contribution d ~term:j) doms.(j))
    in
    let best = ref None in
    let candidate = Array.make n (Match0.make ~loc:0 ~score:0. ()) in
    let last_location = ref min_int in
    let consider ~term:_ m =
      let l = m.Match0.loc in
      if l <> !last_location then begin
        last_location := l;
        for j = 0 to n - 1 do
          ignore (Envelope.value_at cursors.(j) l : float);
          candidate.(j) <- Envelope.chosen cursors.(j)
        done;
        let s = Scoring.score_med d candidate in
        match !best with
        | Some r when r.Naive.score >= s -> ()
        | _ -> best := Some { Naive.matchset = Array.copy candidate; score = s }
      end
    in
    Match_list.iter_in_location_order p consider;
    !best
  end
