open Pj_util

let test_membership () =
  let s = Subset.add 3 (Subset.add 0 Subset.empty) in
  Alcotest.(check bool) "mem 0" true (Subset.mem 0 s);
  Alcotest.(check bool) "mem 3" true (Subset.mem 3 s);
  Alcotest.(check bool) "mem 1" false (Subset.mem 1 s)

let test_remove () =
  let s = Subset.full 4 in
  let s' = Subset.remove 2 s in
  Alcotest.(check bool) "removed" false (Subset.mem 2 s');
  Alcotest.(check int) "cardinal" 3 (Subset.cardinal s')

let test_full () =
  Alcotest.(check int) "full cardinal" 5 (Subset.cardinal (Subset.full 5));
  Alcotest.(check bool) "empty is empty" true (Subset.is_empty (Subset.full 0))

let test_elements () =
  let s = Subset.add 4 (Subset.add 1 Subset.empty) in
  Alcotest.(check (list int)) "elements sorted" [ 1; 4 ] (Subset.elements s)

let test_iter_nonempty_count () =
  let count = ref 0 in
  Subset.iter_nonempty 4 (fun _ -> incr count);
  Alcotest.(check int) "2^4 - 1 subsets" 15 !count

let test_iter_by_decreasing_size () =
  let sizes = ref [] in
  Subset.iter_by_decreasing_size 3 (fun s -> sizes := Subset.cardinal s :: !sizes);
  let sizes = List.rev !sizes in
  Alcotest.(check int) "count" 7 (List.length sizes);
  (* Non-increasing cardinalities. *)
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b && non_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "decreasing sizes" true (non_increasing sizes)

let test_singleton () =
  Alcotest.(check int) "cardinal" 1 (Subset.cardinal (Subset.singleton 7));
  Alcotest.(check bool) "mem" true (Subset.mem 7 (Subset.singleton 7))

(* [cardinal] counts bits without a loop; check it against one over
   every subset of 16 terms and a spread of subsets up to 30 terms. *)
let test_cardinal_counts_bits () =
  let rec bits s = if s = 0 then 0 else (s land 1) + bits (s lsr 1) in
  for s = 0 to Subset.full 16 do
    if Subset.cardinal s <> bits s then
      Alcotest.failf "cardinal %d = %d, not %d" s (Subset.cardinal s) (bits s)
  done;
  let s = ref (Subset.full 30) in
  while !s > 0 do
    Alcotest.(check int) (Printf.sprintf "cardinal %d" !s) (bits !s)
      (Subset.cardinal !s);
    s := !s - (!s / 7) - 1
  done;
  Alcotest.(check int) "30 terms" 30 (Subset.cardinal (Subset.full 30))

let suite =
  [
    ("subset: membership", `Quick, test_membership);
    ("subset: remove", `Quick, test_remove);
    ("subset: full", `Quick, test_full);
    ("subset: elements", `Quick, test_elements);
    ("subset: iter_nonempty count", `Quick, test_iter_nonempty_count);
    ("subset: decreasing-size order", `Quick, test_iter_by_decreasing_size);
    ("subset: singleton", `Quick, test_singleton);
    ("subset: cardinal counts bits", `Quick, test_cardinal_counts_bits);
  ]
