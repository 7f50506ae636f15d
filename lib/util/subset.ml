type t = int

let max_terms = 30

let empty = 0

let full n =
  assert (n >= 0 && n <= max_terms);
  (1 lsl n) - 1

let singleton j = 1 lsl j
let mem j s = s land (1 lsl j) <> 0
let add j s = s lor (1 lsl j)
let remove j s = s land lnot (1 lsl j)

(* Bit counts of pairs, nibbles and bytes, summed by one multiply: a
   subset of at most 30 terms fits the 32 bits this covers. *)
let cardinal s =
  let s = s - ((s lsr 1) land 0x55555555) in
  let s = (s land 0x33333333) + ((s lsr 2) land 0x33333333) in
  let s = (s + (s lsr 4)) land 0x0f0f0f0f in
  ((s * 0x01010101) lsr 24) land 0xff

let is_empty s = s = 0
let equal (a : t) b = a = b

let iter_elements s f =
  let rec loop j s =
    if s <> 0 then begin
      if s land 1 <> 0 then f j;
      loop (j + 1) (s lsr 1)
    end
  in
  loop 0 s

let elements s =
  let acc = ref [] in
  iter_elements s (fun j -> acc := j :: !acc);
  List.rev !acc

let iter_nonempty n f =
  for s = 1 to full n do
    f s
  done

let iter_by_decreasing_size n f =
  for size = n downto 1 do
    for s = 1 to full n do
      if cardinal s = size then f s
    done
  done
