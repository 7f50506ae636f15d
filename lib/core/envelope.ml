type contribution = Match0.t -> int -> float

(* dominates m m' l <=> c (m, l) >= c (m', l); ties count as dominance so
   that the later of two tying matches wins (footnote 4). *)
let dominates c m m' l = c m l >= c m' l

(* The stack lives in one array of the list's length (it never holds
   more), [top] being its size. *)
let dominating_list c (lst : Match_list.t) =
  let n = Array.length lst in
  if n = 0 then [||]
  else begin
    let stack = Array.make n lst.(0) and top = ref 0 in
    for i = 0 to n - 1 do
      let m = lst.(i) in
      if !top = 0 || dominates c m stack.(!top - 1) m.Match0.loc then begin
        while
          !top > 0
          && dominates c m stack.(!top - 1) stack.(!top - 1).Match0.loc
        do
          decr top
        done;
        stack.(!top) <- m;
        incr top
      end
    done;
    if !top = n then stack else Array.sub stack 0 !top
  end

type cursor = {
  contribution : contribution;
  doms : Match0.t array;
  mutable next : int;  (* index of the first dominating match with loc > last query *)
  mutable chosen_idx : int;  (* the last query's dominating match *)
}

let cursor c doms = { contribution = c; doms; next = 0; chosen_idx = 0 }

type pick = {
  chosen : Match0.t;
  succeeds : bool;
  value : float;
}

(* The two dominating matches around [l] are compared directly; the
   winner is remembered by index and its value returned as the
   contribution produced it, so a query allocates nothing of its own. *)
let value_at cur l =
  let n = Array.length cur.doms in
  if n = 0 then invalid_arg "Envelope.value_at: empty dominating list";
  while cur.next < n && cur.doms.(cur.next).Match0.loc <= l do
    cur.next <- cur.next + 1
  done;
  if cur.next = 0 || cur.next = n then begin
    let i = if cur.next = 0 then 0 else n - 1 in
    cur.chosen_idx <- i;
    cur.contribution cur.doms.(i) l
  end
  else begin
    let v1 = cur.contribution cur.doms.(cur.next - 1) l
    and v2 = cur.contribution cur.doms.(cur.next) l in
    (* Prefer the succeeding match on ties (footnote 3). *)
    if v2 >= v1 then begin
      cur.chosen_idx <- cur.next;
      v2
    end
    else begin
      cur.chosen_idx <- cur.next - 1;
      v1
    end
  end

let chosen cur = cur.doms.(cur.chosen_idx)

let query cur l =
  if Array.length cur.doms = 0 then None
  else begin
    let value = value_at cur l in
    Some { chosen = chosen cur; succeeds = cur.chosen_idx = cur.next; value }
  end

let pointwise_max c (lst : Match_list.t) l =
  Array.fold_left (fun acc m -> Float.max acc (c m l)) neg_infinity lst

let pointwise_argmax c (lst : Match_list.t) l =
  (* Ties toward the later match, consistent with [dominating_list]. *)
  let best = ref None in
  Array.iter
    (fun m ->
      let v = c m l in
      match !best with
      | Some (_, bv) when bv > v -> ()
      | _ -> best := Some (m, v))
    lst;
  !best

let interval_pairs c (lst : Match_list.t) ~lo ~hi =
  if Array.length lst = 0 || lo > hi then []
  else begin
    let segments = ref [] in
    let current = ref None in
    for l = lo to hi do
      match pointwise_argmax c lst l with
      | None -> ()
      | Some (m, _) -> begin
          match !current with
          | Some (a, _, m') when Match0.equal m m' ->
              current := Some (a, l, m')
          | Some seg ->
              segments := seg :: !segments;
              current := Some (l, l, m)
          | None -> current := Some (l, l, m)
        end
    done;
    (match !current with
    | Some seg -> segments := seg :: !segments
    | None -> ());
    List.rev !segments
  end
