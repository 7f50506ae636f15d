type algorithm =
  | Fast
  | Naive_alg
  | Auto

let switch_to_naive (p : Match_list.problem) =
  let larger = Array.fold_left (fun n l -> if Array.length l > 1 then n + 1 else n) 0 p in
  larger <= 1

let run (t : Flat.t) =
  match t.Flat.scoring with
  | Scoring.Win w -> Win.run w t
  | Scoring.Med d -> Med.run d t
  | Scoring.Max x -> Max_join.run x t

(* One workspace for every duplicate-unaware solve of one problem (the
   Section VI handler re-solves it with matches removed). *)
let fast_solver scoring (p : Match_list.problem) =
  let t = Flat.create scoring ~n_terms:(Array.length p) in
  fun p ->
    Flat.load t p;
    if run t then Some (Flat.result t) else None

let pick_solver algorithm scoring p =
  match algorithm with
  | Fast -> fast_solver scoring p
  | Naive_alg -> Naive.best scoring
  | Auto ->
      if switch_to_naive p then Naive.best scoring else fast_solver scoring p

let solve ?(algorithm = Fast) ?(dedup = false) scoring p =
  let solver = pick_solver algorithm scoring p in
  if dedup then fst (Dedup.best_valid solver p) else solver p

let solve_with_stats ?(algorithm = Fast) scoring p =
  Dedup.best_valid (pick_solver algorithm scoring p) p

let by_location scoring p =
  match scoring with
  | Scoring.Win w -> By_location.win w p
  | Scoring.Med d -> By_location.med d p
  | Scoring.Max x -> By_location.max_ x p

let top_k ~k scoring p =
  if k < 0 then invalid_arg "Best_join.top_k: negative k";
  let entries = by_location scoring p in
  let sorted =
    List.sort
      (fun (a : By_location.entry) b ->
        let c = compare b.By_location.score a.By_location.score in
        if c <> 0 then c else compare a.By_location.anchor b.By_location.anchor)
      entries
  in
  List.filteri (fun i _ -> i < k) sorted
