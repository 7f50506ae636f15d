type entry = Anchored.entry = {
  anchor : int;
  matchset : Matchset.t;
  score : float;
}

let filter_by_score = Anchored.filter_by_score
let best_entry = Anchored.best_entry

(* Group the merged match stream by location. *)
let iter_location_groups (p : Match_list.problem) f =
  let buffer = ref [] in
  let current_loc = ref min_int in
  let flush () =
    match !buffer with
    | [] -> ()
    | group -> f !current_loc (List.rev group)
  in
  Match_list.iter_in_location_order p (fun ~term m ->
      if m.Match0.loc <> !current_loc then begin
        flush ();
        buffer := [];
        current_loc := m.Match0.loc
      end;
      buffer := (term, m) :: !buffer);
  flush ()

(* --- WIN: delegated to the streaming operator ------------------------ *)

let win = Win_stream.run

(* --- MED: per-anchor side-best selection ----------------------------- *)

(* Per-term side-best tables under the MED contribution
   c_j (m, l) = g_j (score m) - |loc m - l|. For matches strictly left of
   the anchor the contribution is (g + loc) - l, so the best left match
   at every anchor is a prefix argmax of (g + loc); symmetrically the
   best right match is a suffix argmax of (g - loc). *)
type med_side_tables = {
  list : Match_list.t;
  g : float array;                (* g_j (score) per match *)
  prefix_best : int array;        (* argmax of g + loc over 0..i *)
  suffix_best : int array;        (* argmax of g - loc over i.. *)
  mutable idx_lt : int;           (* #matches with loc <  current anchor *)
  mutable idx_le : int;           (* #matches with loc <= current anchor *)
}

let med_tables (d : Scoring.med) term (list : Match_list.t) =
  let len = Array.length list in
  let g = Array.map (fun m -> d.Scoring.med_g term m.Match0.score) list in
  let key_left i = g.(i) +. float_of_int list.(i).Match0.loc in
  let key_right i = g.(i) -. float_of_int list.(i).Match0.loc in
  let prefix_best = Array.make len 0 in
  for i = 1 to len - 1 do
    prefix_best.(i) <-
      (if key_left i >= key_left prefix_best.(i - 1) then i
       else prefix_best.(i - 1))
  done;
  let suffix_best = Array.make len 0 in
  if len > 0 then begin
    suffix_best.(len - 1) <- len - 1;
    for i = len - 2 downto 0 do
      suffix_best.(i) <-
        (if key_right i > key_right suffix_best.(i + 1) then i
         else suffix_best.(i + 1))
    done
  end;
  { list; g; prefix_best; suffix_best; idx_lt = 0; idx_le = 0 }

let med_options_at t anchor =
  let len = Array.length t.list in
  while t.idx_lt < len && t.list.(t.idx_lt).Match0.loc < anchor do
    t.idx_lt <- t.idx_lt + 1
  done;
  if t.idx_le < t.idx_lt then t.idx_le <- t.idx_lt;
  while t.idx_le < len && t.list.(t.idx_le).Match0.loc <= anchor do
    t.idx_le <- t.idx_le + 1
  done;
  let contribution i =
    t.g.(i) -. float_of_int (abs (t.list.(i).Match0.loc - anchor))
  in
  let left =
    if t.idx_lt = 0 then None
    else begin
      let i = t.prefix_best.(t.idx_lt - 1) in
      Some (contribution i, t.list.(i))
    end
  in
  let at =
    if t.idx_le = t.idx_lt then None
    else begin
      (* Best g among the (usually very short) run of matches exactly at
         the anchor. *)
      let best = ref t.idx_lt in
      for i = t.idx_lt + 1 to t.idx_le - 1 do
        if t.g.(i) >= t.g.(!best) then best := i
      done;
      Some (t.g.(!best), t.list.(!best))
    end
  in
  let right =
    if t.idx_le = len then None
    else begin
      let i = t.suffix_best.(t.idx_le) in
      Some (contribution i, t.list.(i))
    end
  in
  { Med_selection.left; at; right }

let med (d : Scoring.med) (p : Match_list.problem) =
  Match_list.validate p;
  if Match_list.has_empty_list p then []
  else begin
    let n = Array.length p in
    let tables = Array.mapi (fun j l -> med_tables d j l) p in
    let entries = ref [] in
    iter_location_groups p (fun l group ->
        let opts = Array.map (fun t -> med_options_at t l) tables in
        let best = ref None in
        List.iter
          (fun (term, m) ->
            let others =
              Array.of_list
                (List.filter_map
                   (fun j -> if j = term then None else Some opts.(j))
                   (List.init n (fun j -> j)))
            in
            match Med_selection.select n others with
            | None -> ()
            | Some picks ->
                let matchset = Array.make n m in
                let k = ref 0 in
                for j = 0 to n - 1 do
                  if j <> term then begin
                    matchset.(j) <- picks.(!k);
                    incr k
                  end
                done;
                let s = Scoring.score_med d matchset in
                (match !best with
                | Some (s', _) when s' >= s -> ()
                | _ -> best := Some (s, matchset)))
          group;
        match !best with
        | None -> ()
        | Some (score, matchset) ->
            entries := { anchor = l; matchset; score } :: !entries);
    List.rev !entries
  end

(* --- MAX: dominating matchset per location --------------------------- *)

let max_ (x : Scoring.max) (p : Match_list.problem) =
  Match_list.validate p;
  if Match_list.has_empty_list p then []
  else begin
    let t = Flat.of_problem (Scoring.Max x) p in
    let e = Flat.prepare_envelope t in
    let entries = ref [] in
    Array.iter
      (fun l ->
        let total = ref 0. in
        let matchset =
          Array.init t.Flat.n (fun j ->
              Envelope.advance e j l;
              total := !total +. e.Envelope.height.(j);
              Flat.match_at t e.Envelope.chosen.(j))
        in
        entries :=
          { anchor = l; matchset; score = Scoring.apply x.Scoring.max_f !total }
          :: !entries)
      (Match_list.locations p);
    List.rev !entries
  end
