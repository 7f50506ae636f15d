type t = {
  doc_id : int;
  positions : int array;
}

let term_frequency t = Array.length t.positions

let make ~doc_id ~positions =
  let positions = Array.copy positions in
  Array.sort compare positions;
  { doc_id; positions }

let of_sorted ~doc_id ~positions =
  for i = 1 to Array.length positions - 1 do
    if positions.(i - 1) >= positions.(i) then
      invalid_arg "Posting.of_sorted: positions not strictly increasing"
  done;
  { doc_id; positions }

let pp ppf t =
  Format.fprintf ppf "@[<h>doc %d: [%a]@]" t.doc_id
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       Format.pp_print_int)
    t.positions
