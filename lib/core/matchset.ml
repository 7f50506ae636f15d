type t = Match0.t array

let min_loc (m : t) =
  assert (Array.length m > 0);
  Array.fold_left (fun acc x -> Stdlib.min acc x.Match0.loc) max_int m

let max_loc (m : t) =
  assert (Array.length m > 0);
  Array.fold_left (fun acc x -> Stdlib.max acc x.Match0.loc) min_int m

let window m = max_loc m - min_loc m

let median_loc (m : t) =
  let n = Array.length m in
  assert (n > 0);
  (* Rank by value, greatest first; pick the floor((n+1)/2)-th. An
     insertion sort: matchsets have a handful of members, and MED
     scores one per distinct match location. *)
  let locs = Array.make n 0 in
  for i = 0 to n - 1 do
    let v = m.(i).Match0.loc in
    let j = ref i in
    while !j > 0 && locs.(!j - 1) < v do
      locs.(!j) <- locs.(!j - 1);
      decr j
    done;
    locs.(!j) <- v
  done;
  locs.(((n + 1) / 2) - 1)

let is_valid (m : t) =
  let n = Array.length m in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Match0.same_token m.(i) m.(j) then ok := false
    done
  done;
  !ok

let locations (m : t) = Array.map (fun x -> x.Match0.loc) m

let equal (a : t) b =
  Array.length a = Array.length b
  && begin
       let ok = ref true in
       Array.iteri (fun i x -> if not (Match0.equal x b.(i)) then ok := false) a;
       !ok
     end

let pp ppf (m : t) =
  Format.fprintf ppf "@[<h>{%a}@]"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       Match0.pp)
    m
