type t = Inverted_index.t array

let of_prebuilt corpus ~counts ~shard_of =
  let n = Corpus.size corpus in
  if Array.length counts = 0 then invalid_arg "Sharded_index: no shards";
  let total = Array.fold_left ( + ) 0 counts in
  if total <> n then
    invalid_arg
      (Printf.sprintf "Sharded_index: shard layout covers %d of %d documents"
         total n);
  let pos = ref 0 in
  Array.mapi
    (fun i len ->
      let shard = shard_of i ~pos:!pos ~len in
      pos := !pos + len;
      shard)
    counts

let n_shards = Array.length
let shard t i = t.(i)
