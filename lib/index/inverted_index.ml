type stats = {
  n_tokens : int;
  n_postings : int;
  n_positions : int;
}

(* External storage engines (the mmap-backed block reader of
   [Pj_ondisk]) plug in through this record: postings stay wherever the
   engine keeps them and are decoded on demand, per cursor block or per
   looked-up document — never the whole index at once. *)
type provider = {
  pr_postings : int -> Posting_list.t;
      (* full materialization of one term's list *)
  pr_cursor : int -> Posting_list.cursor;
  pr_positions : token:int -> doc_id:int -> int array;
  pr_document_frequency : int -> int;
  pr_n_tokens : int; (* distinct indexed tokens *)
  pr_stats : unit -> stats;
  pr_iter : ((int -> Posting_list.t -> unit) -> unit) option;
      (* enumerate every (token, list) pair with postings, arbitrary
         order, each token once. [None] when the engine can't afford
         enumeration (the on-disk layouts) — such an index cannot be
         an input of [concat_adjacent]. *)
}

(* Three storage layouts share one read interface:

   - [Dense]: one slot per vocabulary token, built by [build]. Right for
     the frozen full-corpus index where most tokens have postings.
   - [Sparse]: a hashtable over just the tokens that occur, built by
     [build_docs]. Right for live memtables and sealed segments, whose
     doc ranges touch a sliver of the (global, shared) vocabulary — a
     dense array would cost O(vocab) per memtable rebuild.
   - [Virtual]: reads delegated to a [provider]; nothing lives on the
     OCaml heap beyond what a query touches. *)
type store =
  | Dense of Posting_list.t array (* indexed by token id *)
  | Sparse of (int, Posting_list.t) Hashtbl.t
  | Virtual of provider

type t = {
  corpus : Corpus.t;
  store : store;
}

(* The counting build shared by [build], [build_docs] and the live
   segment writer. Documents arrive as token runs over dense slots
   [0, n_slots), with their ids in strictly increasing order. Postings
   are numbered slot by slot — slot [s] owns [start.(s), start.(s+1)),
   in document order — so every array is allocated at its exact size
   and one term's postings are allocated together, which keeps the
   walks that read a term at a time (the on-disk writer, cursors) on
   neighbouring memory. Both orders hold by construction — documents
   in id order, positions in location order — so nothing is re-sorted
   or copied. *)
let count_postings ~n_slots (ids : int array) (runs : int array array) =
  let n_docs = Array.length runs in
  (* Pass 1: document frequencies. *)
  let df = Array.make n_slots 0 and last = Array.make n_slots (-1) in
  for i = 0 to n_docs - 1 do
    let run = runs.(i) in
    for j = 0 to Array.length run - 1 do
      let s = run.(j) in
      if last.(s) <> i then begin
        last.(s) <- i;
        df.(s) <- df.(s) + 1
      end
    done
  done;
  let start = Array.make (n_slots + 1) 0 in
  for s = 0 to n_slots - 1 do
    start.(s + 1) <- start.(s) + df.(s)
  done;
  let n_postings = start.(n_slots) in
  (* [cur.(s)] is the number of slot [s]'s posting in the current
     document, [next.(s)] that of its next one. *)
  let next = Array.sub start 0 n_slots and cur = Array.make n_slots 0 in
  let enter i s =
    if last.(s) <> i then begin
      last.(s) <- i;
      cur.(s) <- next.(s);
      next.(s) <- next.(s) + 1
    end
  in
  (* Pass 2: each posting's document and term frequency. *)
  let doc_of = Array.make n_postings 0 and tf = Array.make n_postings 0 in
  Array.fill last 0 n_slots (-1);
  for i = 0 to n_docs - 1 do
    let run = runs.(i) in
    for j = 0 to Array.length run - 1 do
      let s = run.(j) in
      enter i s;
      let p = cur.(s) in
      doc_of.(p) <- ids.(i);
      tf.(p) <- tf.(p) + 1
    done
  done;
  let positions = Array.init n_postings (fun p -> Array.make tf.(p) 0) in
  (* Pass 3: positions in location order; [tf.(p)] counts down the
     occurrences still to place. *)
  Array.fill last 0 n_slots (-1);
  Array.blit start 0 next 0 n_slots;
  for i = 0 to n_docs - 1 do
    let run = runs.(i) in
    for pos = 0 to Array.length run - 1 do
      let s = run.(pos) in
      enter i s;
      let p = cur.(s) in
      let a = positions.(p) in
      a.(Array.length a - tf.(p)) <- pos;
      tf.(p) <- tf.(p) - 1
    done
  done;
  Array.init n_slots (fun s ->
      Array.init df.(s) (fun k ->
          let p = start.(s) + k in
          Posting.of_sorted ~doc_id:doc_of.(p) ~positions:positions.(p)))

let build corpus =
  let n_slots = Pj_text.Vocab.size (Corpus.vocab corpus) in
  let docs = Array.init (Corpus.size corpus) (Corpus.document corpus) in
  let posts =
    count_postings ~n_slots
      (Array.map (fun d -> d.Pj_text.Document.id) docs)
      (Array.map (fun d -> d.Pj_text.Document.tokens) docs)
  in
  { corpus; store = Dense (Array.map Posting_list.of_sorted_array posts) }

(* Token ids are global, and a memtable or segment touches a sliver of
   the vocabulary: slots are the distinct tokens of [docs] in
   first-occurrence order, so the scratch arrays are O(distinct
   tokens), not O(vocabulary). *)
module Slots = Hashtbl.Make (Int)

let build_docs ?(skip = fun _ -> false) corpus docs =
  let docs =
    Array.of_seq
      (Seq.filter
         (fun d -> not (skip d.Pj_text.Document.id))
         (Array.to_seq docs))
  in
  let slot_of = Slots.create 256 and tokens = Pj_util.Vec.create () in
  let runs =
    Array.map
      (fun d ->
        Array.map
          (fun tok ->
            match Slots.find_opt slot_of tok with
            | Some s -> s
            | None ->
                let s = Pj_util.Vec.length tokens in
                Slots.add slot_of tok s;
                Pj_util.Vec.push tokens tok;
                s)
          d.Pj_text.Document.tokens)
      docs
  in
  let posts =
    count_postings ~n_slots:(Pj_util.Vec.length tokens)
      (Array.map (fun d -> d.Pj_text.Document.id) docs)
      runs
  in
  let lists = Hashtbl.create (Array.length posts) in
  Array.iteri
    (fun s p ->
      Hashtbl.add lists (Pj_util.Vec.get tokens s)
        (Posting_list.of_sorted_array p))
    posts;
  { corpus; store = Sparse lists }

let of_provider corpus provider = { corpus; store = Virtual provider }

let postings t token =
  match t.store with
  | Dense lists ->
      if token < 0 || token >= Array.length lists then Posting_list.empty
      else lists.(token)
  | Sparse lists -> (
      match Hashtbl.find_opt lists token with
      | Some pl -> pl
      | None -> Posting_list.empty)
  | Virtual p -> p.pr_postings token

let postings_of_word t w =
  match Pj_text.Vocab.find (Corpus.vocab t.corpus) w with
  | None -> Posting_list.empty
  | Some token -> postings t token

(* The cursor entry point the DAAT searcher drives: in-memory stores
   hand out array cursors over the materialized list; a [Virtual] store
   answers with the engine's own streaming cursor, so the traversal
   decodes only the blocks it lands on. *)
let cursor t token =
  match t.store with
  | Virtual p -> p.pr_cursor token
  | Dense _ | Sparse _ -> Posting_list.cursor (postings t token)

let cursor_of_word t w =
  match Pj_text.Vocab.find (Corpus.vocab t.corpus) w with
  | None -> Posting_list.cursor Posting_list.empty
  | Some token -> cursor t token

let positions_in t ~token ~doc_id =
  match t.store with
  | Virtual p -> p.pr_positions ~token ~doc_id
  | Dense _ | Sparse _ -> (
      match Posting_list.find (postings t token) doc_id with
      | None -> [||]
      | Some p -> p.Posting.positions)

let document_frequency t token =
  match t.store with
  | Virtual p -> p.pr_document_frequency token
  | Dense _ | Sparse _ -> Posting_list.document_frequency (postings t token)

let document_frequency_of_word t w =
  match Pj_text.Vocab.find (Corpus.vocab t.corpus) w with
  | None -> 0
  | Some token -> document_frequency t token

let iter_lists f t =
  match t.store with
  | Dense lists -> Array.iter f lists
  | Sparse lists -> Hashtbl.iter (fun _ pl -> f pl) lists
  | Virtual p ->
      for token = 0 to p.pr_n_tokens - 1 do
        f (p.pr_postings token)
      done

let vocabulary_size t =
  match t.store with
  | Dense lists -> Array.length lists
  | Sparse lists -> Hashtbl.length lists
  | Virtual p -> p.pr_n_tokens

let stats t =
  match t.store with
  | Virtual p -> p.pr_stats ()
  | Dense _ | Sparse _ ->
      let n_postings = ref 0 and n_positions = ref 0 in
      iter_lists
        (fun pl ->
          n_postings := !n_postings + Posting_list.document_frequency pl;
          n_positions := !n_positions + Posting_list.collection_frequency pl)
        t;
      {
        n_tokens = vocabulary_size t;
        n_postings = !n_postings;
        n_positions = !n_positions;
      }

(* Term enumeration, when the layout supports it: (token, list) pairs
   in arbitrary order, tokens without postings omitted. *)
let iter_token_lists t =
  match t.store with
  | Dense lists ->
      Some
        (fun f ->
          Array.iteri
            (fun tok pl ->
              if Posting_list.document_frequency pl > 0 then f tok pl)
            lists)
  | Sparse lists -> Some (fun f -> Hashtbl.iter f lists)
  | Virtual p -> p.pr_iter

let concat_adjacent ?skip a b =
  match (iter_token_lists a, iter_token_lists b) with
  | Some iter_a, Some iter_b ->
      (* No [skip] means no per-posting scan at all — the common case
         (merging segments with no deletions) is pure array splicing. *)
      let filter =
        match skip with
        | None -> fun pl -> pl
        | Some f -> Posting_list.reject f
      in
      let acc = Hashtbl.create 1024 in
      let add tok pl =
        let pl = filter pl in
        if Posting_list.document_frequency pl > 0 then
          match Hashtbl.find_opt acc tok with
          | None -> Hashtbl.replace acc tok pl
          | Some prev ->
              Hashtbl.replace acc tok (Posting_list.append_disjoint prev pl)
      in
      (* [a] wholly before [b], so a shared term's postings stay sorted
         by splicing [a]'s run first. *)
      iter_a add;
      iter_b add;
      { corpus = a.corpus; store = Sparse acc }
  | _ -> invalid_arg "Inverted_index.concat_adjacent: terms not enumerable"

let corpus t = t.corpus
