type options = {
  left : (float * Match0.t) option;
  at : (float * Match0.t) option;
  right : (float * Match0.t) option;
}

(* Choose one option per other term, maximizing total contribution,
   subject to the anchor being the median: with R terms strictly after
   and A terms exactly at the anchor (plus the anchor member itself),
   the floor((n+1)/2)-th greatest location equals the anchor iff
   R <= mr - 1 and R + A + 1 >= mr, where mr = floor((n+1)/2). *)
let select n (options : options array) =
  let mr = (n + 1) / 2 in
  let max_r = mr - 1 in
  let k = Array.length options in
  let neg = neg_infinity in
  let dp = Array.init (k + 1) (fun _ -> Array.make_matrix (max_r + 1) (n + 1) neg) in
  let choice = Array.init (k + 1) (fun _ -> Array.make_matrix (max_r + 1) (n + 1) (-1)) in
  dp.(0).(0).(0) <- 0.;
  for i = 0 to k - 1 do
    let o = options.(i) in
    for r = 0 to max_r do
      for a = 0 to n do
        let v = dp.(i).(r).(a) in
        if v > neg then begin
          (match o.left with
          | Some (c, _) ->
              if v +. c > dp.(i + 1).(r).(a) then begin
                dp.(i + 1).(r).(a) <- v +. c;
                choice.(i + 1).(r).(a) <- 0
              end
          | None -> ());
          (match o.at with
          | Some (c, _) when a + 1 <= n ->
              if v +. c > dp.(i + 1).(r).(a + 1) then begin
                dp.(i + 1).(r).(a + 1) <- v +. c;
                choice.(i + 1).(r).(a + 1) <- 1
              end
          | Some _ | None -> ());
          (match o.right with
          | Some (c, _) when r + 1 <= max_r ->
              if v +. c > dp.(i + 1).(r + 1).(a) then begin
                dp.(i + 1).(r + 1).(a) <- v +. c;
                choice.(i + 1).(r + 1).(a) <- 2
              end
          | Some _ | None -> ())
        end
      done
    done
  done;
  (* Best feasible final state. *)
  let best = ref None in
  for r = 0 to max_r do
    for a = 0 to n do
      if r + a + 1 >= mr && dp.(k).(r).(a) > neg then begin
        match !best with
        | Some (v, _, _) when v >= dp.(k).(r).(a) -> ()
        | _ -> best := Some (dp.(k).(r).(a), r, a)
      end
    done
  done;
  match !best with
  | None -> None
  | Some (_, r0, a0) ->
      (* Walk the choices back to recover the selected matches. *)
      let picks = Array.make k (Match0.make ~loc:0 ~score:0. ()) in
      let r = ref r0 and a = ref a0 in
      for i = k downto 1 do
        let c = choice.(i).(!r).(!a) in
        let o = options.(i - 1) in
        let take = function
          | Some (_, m) -> m
          | None -> assert false
        in
        (match c with
        | 0 -> picks.(i - 1) <- take o.left
        | 1 ->
            picks.(i - 1) <- take o.at;
            decr a
        | 2 ->
            picks.(i - 1) <- take o.right;
            decr r
        | _ -> assert false);
      done;
      Some picks

