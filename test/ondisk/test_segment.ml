(* A sealed live segment ([Segment.write]) is an ordinary PJX4 file
   over a segment-local vocabulary and local doc ids [0, len), dead
   documents written empty. [Segment.recover] must give back the very
   documents and token ids it was written from — even after the global
   vocabulary has grown past the segment's words — so the heap index a
   live restart rebuilds from them ([Inverted_index.build_docs
   ~skip:dead]) is observationally the one the writer served. *)

open Pj_ondisk
module Corpus = Pj_index.Corpus
module Inverted_index = Pj_index.Inverted_index
module Posting_list = Pj_index.Posting_list

let with_seg_file f =
  let path = Filename.temp_file "proxjoin_segment" ".seg" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists (path ^ ".tmp") then Sys.remove (path ^ ".tmp"))
    (fun () -> f path)

let cursor_docs c =
  let out = ref [] in
  while Posting_list.current_doc c >= 0 do
    out := Posting_list.current_doc c :: !out;
    Posting_list.next c
  done;
  List.rev !out

(* Every token id (and one past the vocabulary): same postings,
   document frequency, cursor walk and positions; same size stats. *)
let views_differ ~base ~len view reference =
  let n = Pj_text.Vocab.size (Corpus.vocab (Inverted_index.corpus reference)) in
  let differs = ref None in
  let fail fmt =
    Printf.ksprintf (fun m -> if !differs = None then differs := Some m) fmt
  in
  for tok = 0 to n do
    let pv = Posting_list.to_list (Inverted_index.postings view tok)
    and pr = Posting_list.to_list (Inverted_index.postings reference tok) in
    if pv <> pr then fail "token %d: postings differ" tok;
    if
      Inverted_index.document_frequency view tok
      <> Inverted_index.document_frequency reference tok
    then fail "token %d: document frequency differs" tok;
    if
      cursor_docs (Inverted_index.cursor view tok)
      <> cursor_docs (Inverted_index.cursor reference tok)
    then fail "token %d: cursor walk differs" tok;
    for doc_id = base - 1 to base + len do
      if
        Inverted_index.positions_in view ~token:tok ~doc_id
        <> Inverted_index.positions_in reference ~token:tok ~doc_id
      then fail "token %d doc %d: positions differ" tok doc_id
    done
  done;
  if Inverted_index.stats view <> Inverted_index.stats reference then
    fail "stats differ";
  !differs

let alphabet = [| "aa"; "bb"; "cc"; "dd"; "ee"; "ff"; "gg" |]

type case = {
  base : int;  (** documents before the segment *)
  seg : string array list;  (** the segment's documents *)
  dead : bool list;  (** per segment document *)
  later : string array list;  (** added after the segment was written *)
}

let case_gen =
  QCheck.Gen.(
    let word = oneofa alphabet in
    let doc = array_size (int_range 0 10) word in
    let* base = int_range 0 300 in
    let* seg = list_size (int_range 1 40) doc in
    let* dead =
      list_repeat (List.length seg)
        (frequency [ (3, return false); (1, return true) ])
    in
    let fresh = map (Printf.sprintf "new%d") (int_range 0 20) in
    let* later =
      list_size (int_range 0 5) (array_size (int_range 1 6) (oneof [ word; fresh ]))
    in
    return { base; seg; dead; later })

let case_print c =
  let doc d = String.concat " " (Array.to_list d) in
  Printf.sprintf "base %d, segment [%s], later [%s]" c.base
    (String.concat " | "
       (List.map2
          (fun d dead -> (if dead then "DEAD " else "") ^ doc d)
          c.seg c.dead))
    (String.concat " | " (List.map doc c.later))

(* The case's corpus: [base] one-word documents, then the segment's.
   The prefix reuses the alphabet so global ids interleave with the
   segment's first-occurrence order. *)
let corpus_of_case c =
  let corpus = Corpus.create () in
  for i = 0 to c.base - 1 do
    ignore
      (Corpus.add_tokens corpus [| alphabet.(i mod Array.length alphabet) |])
  done;
  List.iter (fun d -> ignore (Corpus.add_tokens corpus d)) c.seg;
  let dead_ids =
    List.concat (List.mapi (fun i d -> if d then [ c.base + i ] else []) c.dead)
  in
  (corpus, List.length c.seg, fun id -> List.mem id dead_ids)

let case_arb = QCheck.make ~print:case_print case_gen

(* A fresh corpus holding [corpus]'s current vocabulary in id order —
   what a live restart replays from the manifest first. *)
let replay_vocab corpus =
  let vocab = Corpus.vocab corpus in
  let replay = Corpus.create () in
  for tok = 0 to Pj_text.Vocab.size vocab - 1 do
    ignore
      (Pj_text.Vocab.intern (Corpus.vocab replay) (Pj_text.Vocab.word vocab tok))
  done;
  replay

(* Restart as the live index does it: vocabulary replayed, the earlier
   segments' documents (here the one-word prefix) recovered, then this
   segment's file; its index rebuilt from the recovered documents must
   match the one built from the originals. *)
let recovered_rebuild_equals_original =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150
       ~name:"recovered segment rebuild = original build_docs ~skip:dead, \
              vocabulary growing"
       case_arb
       (fun c ->
         let corpus, len, dead = corpus_of_case c in
         with_seg_file (fun path ->
             Segment.write ~skip:dead corpus
               (Corpus.docs_slice corpus ~pos:c.base ~len)
               path;
             let mapped = Mapped_index.open_file path in
             Mapped_index.check mapped;
             (* Written: now the vocabulary grows, and documents land
                after the segment's range. *)
             List.iter (fun d -> ignore (Corpus.add_tokens corpus d)) c.later;
             let replay = replay_vocab corpus in
             for i = 0 to c.base - 1 do
               ignore
                 (Corpus.add_ids replay (Corpus.document corpus i).Pj_text.Document.tokens)
             done;
             Segment.recover mapped replay;
             let build corpus =
               Inverted_index.build_docs ~skip:dead corpus
                 (Corpus.docs_slice corpus ~pos:c.base ~len)
             in
             match
               views_differ ~base:c.base ~len (build replay) (build corpus)
             with
             | None -> true
             | Some m -> QCheck.Test.fail_report m)))

(* Recovery as a live restart does it: the global vocabulary replayed
   first (the manifest's word list, here grown past the segment's
   words), then the file's documents appended. *)
let recover_returns_documents =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150
       ~name:"segment recover = written documents, dead ones empty" case_arb
       (fun c ->
         let corpus, len, dead = corpus_of_case c in
         let docs = Corpus.docs_slice corpus ~pos:c.base ~len in
         with_seg_file (fun path ->
             Segment.write ~skip:dead corpus docs path;
             List.iter (fun d -> ignore (Corpus.add_tokens corpus d)) c.later;
             let vocab = Corpus.vocab corpus in
             let replay = replay_vocab corpus in
             Segment.recover (Mapped_index.open_file path) replay;
             Corpus.size replay = len
             && Array.for_all
                  (fun (d : Pj_text.Document.t) ->
                    let id = d.Pj_text.Document.id in
                    (Corpus.document replay (id - c.base)).Pj_text.Document.tokens
                    = if dead id then [||] else d.Pj_text.Document.tokens)
                  docs
             && Pj_text.Vocab.size (Corpus.vocab replay)
                = Pj_text.Vocab.size vocab)))

let suite = [ recovered_rebuild_equals_original; recover_returns_documents ]
