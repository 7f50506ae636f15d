let default_cap = 8

let domain_cap () =
  match Sys.getenv_opt "PROXJOIN_DOMAINS" with
  | None -> default_cap
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n -> Stdlib.max 1 n
      | None -> default_cap)

let recommended_domains () =
  Stdlib.min (domain_cap ()) (Domain.recommended_domain_count ())

let map_array ?domains f a =
  let n = Array.length a in
  let domains =
    match domains with
    | Some d -> Stdlib.max 1 d
    | None -> recommended_domains ()
  in
  let domains = Stdlib.min domains n in
  if domains <= 1 || n < 2 then Array.map f a
  else begin
    (* Contiguous chunks, sized within one of each other. *)
    let chunk_of i =
      let base = n / domains and extra = n mod domains in
      let start = (i * base) + Stdlib.min i extra in
      let len = base + (if i < extra then 1 else 0) in
      (start, len)
    in
    let run i =
      let start, len = chunk_of i in
      Array.init len (fun j -> f a.(start + j))
    in
    (* Spawn domains for all chunks but the first, which runs here. *)
    let handles =
      List.init (domains - 1) (fun i -> Domain.spawn (fun () -> run (i + 1)))
    in
    let first = run 0 in
    let rest = List.map Domain.join handles in
    Array.concat (first :: rest)
  end
