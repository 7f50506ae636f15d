module Corpus = Pj_index.Corpus
module Vocab = Pj_text.Vocab

let write ?failpoint ?(skip = fun _ -> false) corpus docs path =
  let vocab = Corpus.vocab corpus in
  let local = Corpus.create () in
  (* Global token id -> local id, each distinct word interned once, in
     first-occurrence order. A flat array over the global vocabulary:
     a hash-table lookup per token made flushes and merges measurably
     slower. *)
  let ids = Array.make (Vocab.size vocab) (-1) in
  let local_id tok =
    if ids.(tok) < 0 then
      ids.(tok) <- Vocab.intern (Corpus.vocab local) (Vocab.word vocab tok);
    ids.(tok)
  in
  Array.iter
    (fun (d : Pj_text.Document.t) ->
      ignore
        (Corpus.add_ids local
           (if skip d.Pj_text.Document.id then [||]
            else Array.map local_id d.Pj_text.Document.tokens)))
    docs;
  Writer.write ?fp_write:failpoint ?fp_rename:failpoint
    (Pj_index.Inverted_index.build local)
    path

let recover mapped corpus =
  Mapped_index.verify mapped;
  Mapped_index.check_dictionary mapped;
  let vocab = Corpus.vocab corpus in
  let local_vocab = Mapped_index.vocab mapped in
  let ids = Array.make (Vocab.size local_vocab) (-1) in
  let global_id l =
    if ids.(l) < 0 then ids.(l) <- Vocab.intern vocab (Vocab.word local_vocab l);
    ids.(l)
  in
  Corpus.iter
    (fun d ->
      ignore
        (Corpus.add_ids corpus (Array.map global_id d.Pj_text.Document.tokens)))
    (Mapped_index.corpus mapped)
