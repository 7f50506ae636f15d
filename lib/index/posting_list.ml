type t = Posting.t array (* sorted by doc_id, unique doc_ids *)

let block_size = 128

let empty : t = [||]

let merge_positions a b =
  let merged = Array.append a b in
  Array.sort compare merged;
  (* Keep duplicate positions only once. *)
  let n = Array.length merged in
  if n = 0 then merged
  else begin
    let out = Pj_util.Vec.create () in
    Pj_util.Vec.push out merged.(0);
    for i = 1 to n - 1 do
      if merged.(i) <> merged.(i - 1) then Pj_util.Vec.push out merged.(i)
    done;
    Pj_util.Vec.to_array out
  end

let of_postings postings =
  let sorted =
    List.sort (fun a b -> compare a.Posting.doc_id b.Posting.doc_id) postings
  in
  let out = Pj_util.Vec.create () in
  List.iter
    (fun p ->
      if
        (not (Pj_util.Vec.is_empty out))
        && (Pj_util.Vec.last out).Posting.doc_id = p.Posting.doc_id
      then begin
        let last = Pj_util.Vec.pop out in
        Pj_util.Vec.push out
          (Posting.make ~doc_id:p.Posting.doc_id
             ~positions:(merge_positions last.Posting.positions p.Posting.positions))
      end
      else Pj_util.Vec.push out p)
    sorted;
  Pj_util.Vec.to_array out

let document_frequency t = Array.length t

let collection_frequency t =
  Array.fold_left (fun acc p -> acc + Posting.term_frequency p) 0 t

let find a doc_id =
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  let found = ref None in
  while !found = None && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let d = a.(mid).Posting.doc_id in
    if d = doc_id then found := Some a.(mid)
    else if d < doc_id then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let iter f t = Array.iter f t
let fold f acc t = Array.fold_left f acc t
let doc_ids t = Array.map (fun p -> p.Posting.doc_id) t

let union a b : t = of_postings (Array.to_list a @ Array.to_list b)

let of_sorted_array (a : Posting.t array) : t =
  for i = 1 to Array.length a - 1 do
    if a.(i - 1).Posting.doc_id >= a.(i).Posting.doc_id then
      invalid_arg "Posting_list.of_sorted_array: ids not strictly increasing"
  done;
  a

let to_sorted_array t = t

let reject f t : t =
  if Array.exists (fun p -> f p.Posting.doc_id) t then
    Array.of_list
      (List.filter (fun p -> not (f p.Posting.doc_id)) (Array.to_list t))
  else t

let append_disjoint a b : t =
  let na = Array.length a and nb = Array.length b in
  if na = 0 then b
  else if nb = 0 then a
  else if a.(na - 1).Posting.doc_id >= b.(0).Posting.doc_id then
    invalid_arg "Posting_list.append_disjoint: doc-id ranges overlap"
  else Array.append a b

let to_list t = Array.to_list t

(* --- cursors ----------------------------------------------------------- *)

(* Two cursor implementations behind one dispatch: the in-memory array
   walk, and an open [custom] record so storage engines (e.g. the
   block-compressed mmap reader in [Pj_ondisk]) can stream postings
   straight off their own layout without materializing an array. *)

(* [hi] bounds the walk to a prefix of [list]: entries at index >= hi
   are invisible. [cursor] sets hi to the full length; [cursor_prefix]
   lets a growing array (the live memtable's per-term postings) hand
   out cursors over just its committed, snapshot-visible prefix while
   a writer keeps appending beyond it. *)
type mem_cursor = { list : Posting.t array; hi : int; mutable pos : int }

type custom = {
  cu_current : unit -> Posting.t option;
  cu_current_doc : unit -> int;
  cu_next : unit -> unit;
  cu_seek : int -> unit;
  cu_block_last_doc : unit -> int;
}

type cursor =
  | Mem of mem_cursor
  | Custom of custom

let cursor t = Mem { list = t; hi = Array.length t; pos = 0 }

let cursor_prefix a ~len =
  if len < 0 || len > Array.length a then
    invalid_arg "Posting_list.cursor_prefix: len out of range";
  Mem { list = a; hi = len; pos = 0 }

let custom ~current ~current_doc ~next ~seek ~block_last_doc =
  Custom
    {
      cu_current = current;
      cu_current_doc = current_doc;
      cu_next = next;
      cu_seek = seek;
      cu_block_last_doc = block_last_doc;
    }

let mem_current c = if c.pos >= c.hi then None else Some c.list.(c.pos)

let mem_current_doc c =
  if c.pos >= c.hi then -1 else c.list.(c.pos).Posting.doc_id

let mem_next c = if c.pos < c.hi then c.pos <- c.pos + 1

(* Galloping (exponential) advance: double a probe offset until the
   posting there reaches the target, then binary-search the bracketed
   range. O(log gap) comparisons whatever the jump size, so a seek
   driven by a sparse list across a dense one never degrades to a
   linear scan of the dense list. Doc ids are read in place, with no
   helper closure, so a seek allocates nothing. *)
let mem_seek c target =
  let n = c.hi and a = c.list and pos = c.pos in
  if pos < n && a.(pos).Posting.doc_id < target then begin
    let bound = ref 1 in
    while pos + !bound < n && a.(pos + !bound).Posting.doc_id < target do
      bound := !bound * 2
    done;
    (* Invariant: doc (pos + bound/2) < target <= doc (pos + bound)
       when in range; binary search in (pos + bound/2, pos + bound]. *)
    if pos + !bound >= n && a.(n - 1).Posting.doc_id < target then c.pos <- n
    else begin
      let lo = ref (pos + (!bound / 2) + 1)
      and hi = ref (Int.min (pos + !bound) (n - 1)) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if a.(mid).Posting.doc_id < target then lo := mid + 1 else hi := mid
      done;
      c.pos <- !lo
    end
  end

let current = function Mem c -> mem_current c | Custom c -> c.cu_current ()

let current_doc = function
  | Mem c -> mem_current_doc c
  | Custom c -> c.cu_current_doc ()

let next = function Mem c -> mem_next c | Custom c -> c.cu_next ()

let seek c target =
  match c with Mem c -> mem_seek c target | Custom c -> c.cu_seek target

(* Last visible document of the cursor's current [block_size]-run —
   index arithmetic, clamped to the visible prefix, so a prefix cursor
   never reports past its snapshot. *)
let block_last_doc = function
  | Mem c ->
      if c.pos >= c.hi then -1
      else
        c.list.(Stdlib.min c.hi (((c.pos / block_size) + 1) * block_size) - 1)
          .Posting.doc_id
  | Custom c -> c.cu_block_last_doc ()
