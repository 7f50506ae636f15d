(* Two document stores behind one interface:

   - [Mem]: the growable in-memory vector every writable corpus uses.
   - [Paged]: documents fetched on demand from an external store (the
     mmap-backed v4 format of [Pj_ondisk]) — the corpus then costs
     O(vocabulary) heap however many documents the file holds, and a
     fetched document lives only as long as its caller keeps it. *)

type paged = {
  count : int;          (* documents held by this (view of the) corpus *)
  first : int;          (* absolute id of the first held document *)
  fetch : int -> Pj_text.Document.t; (* by absolute document id *)
  paged_tokens : int;   (* total tokens across the held documents *)
}

type store =
  | Mem of Pj_text.Document.t Pj_util.Vec.t
  | Paged of paged

type t = {
  vocab : Pj_text.Vocab.t;
  store : store;
  view : bool;
}

let create () =
  {
    vocab = Pj_text.Vocab.create ();
    store = Mem (Pj_util.Vec.create ());
    view = false;
  }

let of_paged ~vocab ~count ~total_tokens fetch =
  if count < 0 then invalid_arg "Corpus.of_paged: negative count";
  {
    vocab;
    store = Paged { count; first = 0; fetch; paged_tokens = total_tokens };
    view = true;
  }

let vocab t = t.vocab

let check_writable t fn =
  if t.view then
    invalid_arg (fn ^ ": cannot add documents to a read-only corpus view")

let mem_docs t fn =
  match t.store with
  | Mem docs -> docs
  | Paged _ -> invalid_arg (fn ^ ": paged corpus")

let add_tokens t tokens =
  check_writable t "Corpus.add_tokens";
  let docs = mem_docs t "Corpus.add_tokens" in
  let id = Pj_util.Vec.length docs in
  let d = Pj_text.Document.of_tokens t.vocab ~id tokens in
  Pj_util.Vec.push docs d;
  d

let add_ids t ids =
  check_writable t "Corpus.add_ids";
  let docs = mem_docs t "Corpus.add_ids" in
  let n_words = Pj_text.Vocab.size t.vocab in
  if Array.exists (fun id -> id < 0 || id >= n_words) ids then
    invalid_arg "Corpus.add_ids: token id outside the vocabulary";
  let d = { Pj_text.Document.id = Pj_util.Vec.length docs; tokens = ids } in
  Pj_util.Vec.push docs d;
  d

let of_stemmed_texts texts =
  let t = create () in
  let memo = Pj_text.Analyzer.memo t.vocab in
  List.iter
    (fun text -> ignore (add_ids t (Pj_text.Analyzer.token_ids memo text)))
    texts;
  t

let add_text t text =
  check_writable t "Corpus.add_text";
  add_tokens t (Pj_text.Tokenizer.tokenize_array text)

let size t =
  match t.store with
  | Mem docs -> Pj_util.Vec.length docs
  | Paged p -> p.count

let document t i =
  match t.store with
  | Mem docs -> Pj_util.Vec.get docs i
  | Paged p ->
      if i < 0 || i >= p.count then invalid_arg "Corpus.document";
      p.fetch (p.first + i)

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > size t then invalid_arg "Corpus.sub";
  match t.store with
  | Mem docs ->
      let view = Pj_util.Vec.create () in
      for i = pos to pos + len - 1 do
        Pj_util.Vec.push view (Pj_util.Vec.get docs i)
      done;
      { vocab = t.vocab; store = Mem view; view = true }
  | Paged p ->
      (* Token accounting of a strict sub-range is unknown without a
         scan; count lazily in [total_tokens] (views are rare and the
         full-range case keeps the stored total). *)
      let paged_tokens = if len = p.count then p.paged_tokens else -1 in
      {
        vocab = t.vocab;
        store = Paged { count = len; first = p.first + pos; fetch = p.fetch; paged_tokens };
        view = true;
      }

let iter f t =
  match t.store with
  | Mem docs -> Pj_util.Vec.iter f docs
  | Paged p ->
      for i = 0 to p.count - 1 do
        f (p.fetch (p.first + i))
      done

let fold f acc t =
  match t.store with
  | Mem docs -> Pj_util.Vec.fold_left f acc docs
  | Paged p ->
      let acc = ref acc in
      for i = 0 to p.count - 1 do
        acc := f !acc (p.fetch (p.first + i))
      done;
      !acc

let docs_slice t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > size t then
    invalid_arg "Corpus.docs_slice";
  Array.init len (fun i -> document t (pos + i))

let total_tokens t =
  match t.store with
  | Paged p when p.paged_tokens >= 0 -> p.paged_tokens
  | Mem _ | Paged _ ->
      fold (fun acc d -> acc + Pj_text.Document.length d) 0 t

let average_length t =
  if size t = 0 then 0.
  else float_of_int (total_tokens t) /. float_of_int (size t)
