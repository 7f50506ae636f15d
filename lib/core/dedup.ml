type solver = Match_list.problem -> Naive.result option

type stats = { invocations : int }

(* Group the members of a matchset by location; groups of size >= 2 are
   duplicate uses of one token. Returns the (term, match) members per
   group. *)
let duplicate_groups (m : Matchset.t) =
  let module Imap = Map.Make (Int) in
  let groups =
    Array.to_seq m
    |> Seq.mapi (fun j x -> (j, x))
    |> Seq.fold_left
         (fun acc (j, x) ->
           Imap.update x.Match0.loc
             (function
               | None -> Some [ (j, x) ]
               | Some l -> Some ((j, x) :: l))
             acc)
         Imap.empty
  in
  Imap.fold
    (fun _ members acc -> if List.length members >= 2 then members :: acc else acc)
    groups []

(* All ways of keeping each duplicated match in exactly one of the lists
   that used it: the cross product of per-group keeper choices. Each
   choice yields the list of (term, match) removals to apply. *)
let removal_plans groups =
  let rec expand = function
    | [] -> [ [] ]
    | group :: rest ->
        let rest_plans = expand rest in
        List.concat_map
          (fun (keep_term, _) ->
            let removals =
              List.filter_map
                (fun (j, x) -> if j = keep_term then None else Some (j, x))
                group
            in
            List.map (fun plan -> removals @ plan) rest_plans)
          group
  in
  expand groups

(* Exactness of the search: a valid matchset survives in the branch that
   keeps, for every duplicated token, the term (if any) for which the
   matchset uses it, so the exhaustive branch cross product always
   contains the best valid matchset. The search is organized best-first
   with branch-and-bound: deleting matches can only lower an instance's
   (duplicate-unaware) optimum, so a parent's score bounds every valid
   matchset in its subtree. Instances are expanded in decreasing bound
   order and the search stops as soon as the best pending bound cannot
   beat the best valid matchset found — which keeps the number of solver
   invocations small (around the paper's reported 10-12 per document)
   even at 60% duplicate frequency. Repeated removal sets are solved
   once. *)
type node = {
  bound : float;  (* parent's duplicate-unaware optimum; +inf at the root *)
  problem : Match_list.problem;
  removals : (int * Match0.t) list;  (* sorted: the memoization key *)
}

(* A fully disambiguated copy of the problem: every location occurring
   in several lists keeps its match only in the list where it scores
   highest (ties toward the lower term index). Any matchset of the
   disambiguated instance is valid, so solving it yields an immediate
   valid incumbent whose score seeds the branch-and-bound pruning. *)
let disambiguate (p : Match_list.problem) =
  (* Per location: the set of terms using it and the best (score, term). *)
  let module Iset = Set.Make (Int) in
  let terms_at : (int, Iset.t) Hashtbl.t = Hashtbl.create 64 in
  let best_at : (int, int * float) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun j l ->
      Array.iter
        (fun m ->
          let loc = m.Match0.loc in
          let prev =
            Option.value ~default:Iset.empty (Hashtbl.find_opt terms_at loc)
          in
          Hashtbl.replace terms_at loc (Iset.add j prev);
          (match Hashtbl.find_opt best_at loc with
          | Some (_, s) when s >= m.Match0.score -> ()
          | _ -> Hashtbl.replace best_at loc (j, m.Match0.score)))
        l)
    p;
  Array.mapi
    (fun j l ->
      Array.of_list
        (List.filter
           (fun m ->
             let loc = m.Match0.loc in
             Iset.cardinal (Hashtbl.find terms_at loc) <= 1
             || fst (Hashtbl.find best_at loc) = j)
           (Array.to_list l)))
    p

(* Branch-and-bound below a root whose duplicate-unaware result [root]
   reuses a location: exactly the loop's state after it popped and
   solved the root node, so the search is the one it always was. *)
let resume solve (p : Match_list.problem) ~(root : Naive.result) =
  let invocations = ref 1 in
  let best : Naive.result option ref = ref None in
  let visited = Hashtbl.create 64 in
  Hashtbl.add visited [] ();
  let improves s =
    match !best with
    | None -> true
    | Some b -> s > b.Naive.score
  in
  let queue =
    Pj_util.Heap.create ~leq:(fun a b -> a.bound <= b.bound)
  in
  (* Lazy incumbent seeding: on the first invalid result, solve a
     disambiguated copy whose matchsets are all valid; its optimum is a
     strong incumbent that lets the bound prune most of the tree. *)
  let seeded = ref false in
  let seed_incumbent () =
    if not !seeded then begin
      seeded := true;
      let p' = disambiguate p in
      if not (Match_list.has_empty_list p') then begin
        incr invocations;
        match solve p' with
        | Some r when improves r.Naive.score ->
            (* Location sharing is impossible in the disambiguated
               instance, so the result is a valid matchset of [p]. *)
            best := Some r
        | Some _ | None -> ()
      end
    end
  in
  (* [node] solved to the invalid [r]: seed the incumbent, then branch
     on a single duplicated token per level (the cross product over all
     groups is reached across levels): fewer children per node, so the
     best-first bound prunes earlier. *)
  let branch node (r : Naive.result) =
    seed_incumbent ();
    let plans =
      match duplicate_groups r.Naive.matchset with
      | [] -> []
      | group :: _ -> removal_plans [ group ]
    in
    List.iter
      (fun plan ->
        let p' =
          List.fold_left
            (fun acc (term, m) -> Match_list.remove_match acc ~term m)
            node.problem plan
        in
        if not (Match_list.has_empty_list p') then
          Pj_util.Heap.push queue
            {
              bound = r.Naive.score;
              problem = p';
              removals = List.sort compare (plan @ node.removals);
            })
      plans
  in
  branch { bound = infinity; problem = p; removals = [] } root;
  let continue = ref true in
  while !continue do
    match Pj_util.Heap.pop queue with
    | None -> continue := false
    | Some node ->
        if not (improves node.bound) then continue := false
          (* every pending bound is lower still: nothing can improve *)
        else if not (Hashtbl.mem visited node.removals) then begin
          Hashtbl.add visited node.removals ();
          incr invocations;
          match solve node.problem with
          | None -> ()
          | Some r ->
              if not (improves r.Naive.score) then ()
              else if Matchset.is_valid r.Naive.matchset then best := Some r
              else branch node r
        end
  done;
  (!best, { invocations = !invocations })

(* The root solve comes first: when its matchset reuses no location it
   is the answer (nothing valid can beat the unconstrained optimum), and
   no frontier or memo table is built. *)
let best_valid solve (p : Match_list.problem) =
  match solve p with
  | None -> (None, { invocations = 1 })
  | Some r when Matchset.is_valid r.Naive.matchset ->
      (Some r, { invocations = 1 })
  | Some r -> resume solve p ~root:r
