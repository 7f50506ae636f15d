(* Each subset state holds up to k entries (g_sum, l_min, members),
   deduplicated by matchset membership and ordered by the scoring key at
   the current location. Lists are tiny (k is small), so plain sorted
   lists beat fancier structures. *)

type chain =
  | Nil
  | Cons of int * Match0.t * chain

type entry = {
  g_sum : float;
  l_min : int;
  members : chain;
  key_id : string;  (* canonical matchset identity for deduplication *)
}

let rec chain_members acc = function
  | Nil -> acc
  | Cons (term, m, rest) ->
      chain_members ((term, m.Match0.loc, m.Match0.score, m.Match0.payload) :: acc) rest

let identity_of chain =
  let members = List.sort compare (chain_members [] chain) in
  String.concat ";"
    (List.map
       (fun (t, l, s, p) -> Printf.sprintf "%d,%d,%h,%d" t l s p)
       members)

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

(* Insert an entry into a key-descending list of size <= k, dropping
   duplicates (an existing entry with the same matchset can only have a
   key at least as good: both carry the same g_sum and l_min). *)
let insert ~k ~key_at entries e =
  if List.exists (fun x -> String.equal x.key_id e.key_id) entries then entries
  else begin
    let rec place = function
      | [] -> [ e ]
      | x :: rest ->
          if key_at e > key_at x then e :: x :: rest else x :: place rest
    in
    let placed = place entries in
    if List.length placed > k then List.filteri (fun i _ -> i < k) placed
    else placed
  end

let best_k ~k (w : Scoring.win) (p : Match_list.problem) =
  if k < 0 then invalid_arg "Win_topk.best_k: negative k";
  Match_list.validate p;
  if k = 0 || Match_list.has_empty_list p then []
  else begin
    let n = Array.length p in
    let full = Pj_util.Subset.full n in
    let states : entry list array = Array.make (full + 1) [] in
    (* Global candidate pool for the Q subset: matchset identity -> best
       (true) score seen, which occurs when its last member is processed. *)
    let candidates : (string, float * chain) Hashtbl.t = Hashtbl.create 64 in
    let process ~term m =
      let g = w.Scoring.win_g term m.Match0.score in
      let l = m.Match0.loc in
      let key_at e = Scoring.win_key w e.g_sum (l - e.l_min) in
      Pj_util.Subset.iter_by_decreasing_size n (fun s ->
          if Pj_util.Subset.mem term s then begin
            if Pj_util.Subset.equal s (Pj_util.Subset.singleton term) then begin
              let members = Cons (term, m, Nil) in
              let e = { g_sum = g; l_min = l; members; key_id = identity_of members } in
              states.(s) <- insert ~k ~key_at states.(s) e
            end
            else begin
              let sub = states.(Pj_util.Subset.remove term s) in
              List.iter
                (fun se ->
                  let members = Cons (term, m, se.members) in
                  let e =
                    {
                      g_sum = se.g_sum +. g;
                      l_min = se.l_min;
                      members;
                      key_id = identity_of members;
                    }
                  in
                  states.(s) <- insert ~k ~key_at states.(s) e)
                sub
            end
          end);
      (* Record the Q-subset entries at this location: an entry whose
         last member is m gets its true score here; aged entries only
         re-record lower values, filtered by the max-keeping table. *)
      List.iter
        (fun e ->
          let score = Scoring.win_f w e.g_sum (l - e.l_min) in
          match Hashtbl.find_opt candidates e.key_id with
          | Some (s, _) when s >= score -> ()
          | _ -> Hashtbl.replace candidates e.key_id (score, e.members))
        states.(full)
    in
    Match_list.iter_in_location_order p process;
    Hashtbl.fold (fun _ (score, members) acc -> (score, members) :: acc)
      candidates []
    |> List.sort (fun (a, _) (b, _) -> compare b a)
    |> List.filteri (fun i _ -> i < k)
    |> List.map (fun (score, members) ->
           { Naive.matchset = rebuild n members; score })
  end
