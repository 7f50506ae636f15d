let stems text = Array.map Porter.stem (Tokenizer.tokenize_array text)

module Words = Hashtbl.Make (String)

type memo = {
  vocab : Vocab.t;
  ids : int Words.t; (* surface word -> id of its stem *)
}

let memo vocab = { vocab; ids = Words.create 4096 }

(* Stemming and interning run once per distinct surface word. A stem is
   interned the first time any of its surface forms occurs, which is
   its first occurrence as a stem, so ids come out in the same order as
   interning [stems] token by token. *)
let token_ids m text =
  let out = Pj_util.Vec.create () in
  Tokenizer.iter
    (fun w ->
      let id =
        match Words.find_opt m.ids w with
        | Some id -> id
        | None ->
            let id = Vocab.intern m.vocab (Porter.stem w) in
            Words.add m.ids w id;
            id
      in
      Pj_util.Vec.push out id)
    text;
  Pj_util.Vec.to_array out
