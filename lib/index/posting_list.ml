(* --- block sidecar ------------------------------------------------------ *)

(* Per-block skip metadata for in-memory lists, mirroring the on-disk
   skip entries of [Pj_ondisk.Codec]: the last document id and a
   round-up-quantized maximum posting impact for every [block_size]-run
   of postings. Built lazily (or at freeze/seal time via [seal]) and
   cached on the list, so repeated cursors share one sidecar. *)
type blocks = {
  b_last : int array;
  b_qmax : float array;
}

type t = {
  posts : Posting.t array; (* sorted by doc_id, unique doc_ids *)
  blocks : blocks option Atomic.t;
      (* Lazily published; the build is deterministic, so a racy
         double-build from sibling domains installs equal values. *)
}

let block_size = 128

(* Impact of one posting: the term-frequency saturation tf/(tf+1),
   strictly increasing in tf and < 1. This is the score the on-disk
   format quantizes per posting and maximizes per block; the in-memory
   sidecar applies the same round-up quantization, so both layouts
   report identical (and never under-reporting) block ceilings. *)
let impact_ceiling = 1.

let impact ~tf = float_of_int tf /. float_of_int (tf + 1)

(* Round-up 8-bit quantization, as [Pj_ondisk.Codec.quantize_up]
   followed by dequantization: never below [v], so a block bound built
   from it never under-reports the true maximum impact. *)
let quantized_ceiling v =
  let q = Float.ceil (v *. 255.) in
  (if q < 0. then 0. else if q > 255. then 255. else q) /. 255.

let build_blocks posts =
  let df = Array.length posts in
  let nb = (df + block_size - 1) / block_size in
  let b_last = Array.make nb 0 and b_qmax = Array.make nb 0. in
  for b = 0 to nb - 1 do
    let lo = b * block_size and hi = Stdlib.min df ((b + 1) * block_size) in
    b_last.(b) <- posts.(hi - 1).Posting.doc_id;
    let q = ref 0. in
    for i = lo to hi - 1 do
      let tf = Array.length posts.(i).Posting.positions in
      let v = quantized_ceiling (impact ~tf) in
      if v > !q then q := v
    done;
    b_qmax.(b) <- !q
  done;
  { b_last; b_qmax }

let force_blocks t =
  match Atomic.get t.blocks with
  | Some b -> b
  | None ->
      let b = build_blocks t.posts in
      Atomic.set t.blocks (Some b);
      b

let seal t = ignore (force_blocks t)

let wrap posts = { posts; blocks = Atomic.make None }

let empty : t = wrap [||]

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
  wrap (Pj_util.Vec.to_array out)

let document_frequency t = Array.length t.posts

let collection_frequency t =
  Array.fold_left (fun acc p -> acc + Posting.term_frequency p) 0 t.posts

let find t doc_id =
  let a = t.posts in
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

let iter f t = Array.iter f t.posts
let fold f acc t = Array.fold_left f acc t.posts
let doc_ids t = Array.map (fun p -> p.Posting.doc_id) t.posts

let union a b : t =
  of_postings (Array.to_list a.posts @ Array.to_list b.posts)

let of_sorted_array (a : Posting.t array) : t =
  for i = 1 to Array.length a - 1 do
    if a.(i - 1).Posting.doc_id >= a.(i).Posting.doc_id then
      invalid_arg "Posting_list.of_sorted_array: ids not strictly increasing"
  done;
  wrap a

let to_sorted_array t = t.posts

let reject f t : t =
  if Array.exists (fun p -> f p.Posting.doc_id) t.posts then
    wrap
      (Array.of_list
         (List.filter (fun p -> not (f p.Posting.doc_id)) (Array.to_list t.posts)))
  else t

let append_disjoint a b : t =
  let na = Array.length a.posts and nb = Array.length b.posts in
  if na = 0 then b
  else if nb = 0 then a
  else if a.posts.(na - 1).Posting.doc_id >= b.posts.(0).Posting.doc_id then
    invalid_arg "Posting_list.append_disjoint: doc-id ranges overlap"
  else begin
    let posts = Array.append a.posts b.posts in
    (* Block boundaries survive the splice exactly when [a] fills whole
       blocks; then the sidecars concatenate instead of being recomputed
       over the merged postings — the common case for segment merges,
       whose left inputs grow in multiples of the flush size. *)
    let blocks =
      if na mod block_size = 0 then
        match (Atomic.get a.blocks, Atomic.get b.blocks) with
        | Some ba, Some bb ->
            Some
              {
                b_last = Array.append ba.b_last bb.b_last;
                b_qmax = Array.append ba.b_qmax bb.b_qmax;
              }
        | _ -> None
      else None
    in
    { posts; blocks = Atomic.make blocks }
  end

let to_list t = Array.to_list t.posts

(* --- cursors ----------------------------------------------------------- *)

(* Two cursor implementations behind one dispatch: the in-memory array
   walk, and an open [custom] record so storage engines (e.g. the
   block-compressed mmap reader in [Pj_ondisk]) can stream postings
   straight off their own layout without materializing an array. *)

(* [hi] bounds the walk to a prefix of [list]: entries at index >= hi
   are invisible. [cursor] sets hi to the full length; [cursor_prefix]
   lets a growing array (the live memtable's per-term postings) hand
   out cursors over just its committed, snapshot-visible prefix while
   a writer keeps appending beyond it.

   [sidecar] is the owning list when the cursor covers it whole — its
   cached block metadata then answers [block_max_score]. A prefix
   cursor has no owner (the underlying array is still growing), so it
   computes the current block's ceiling on demand and memoizes it in
   [cb]/[cb_qmax]: one O(block_size) scan per block entered, amortized
   O(1) per posting. *)
type mem_cursor = {
  list : Posting.t array;
  hi : int;
  mutable pos : int;
  sidecar : t option;
  mutable cb : int; (* block index of the cached ceiling; -1 = none *)
  mutable cb_qmax : float;
}

type custom = {
  cu_current : unit -> Posting.t option;
  cu_current_doc : unit -> int;
  cu_next : unit -> unit;
  cu_seek : int -> unit;
  cu_block_max_score : unit -> float;
  cu_block_last_doc : unit -> int;
}

type cursor =
  | Mem of mem_cursor
  | Custom of custom

let cursor t =
  Mem
    {
      list = t.posts;
      hi = Array.length t.posts;
      pos = 0;
      sidecar = Some t;
      cb = -1;
      cb_qmax = 0.;
    }

let cursor_prefix a ~len =
  if len < 0 || len > Array.length a then
    invalid_arg "Posting_list.cursor_prefix: len out of range";
  Mem { list = a; hi = len; pos = 0; sidecar = None; cb = -1; cb_qmax = 0. }

let custom ~current ~current_doc ~next ~seek ~block_max_score ~block_last_doc =
  Custom
    {
      cu_current = current;
      cu_current_doc = current_doc;
      cu_next = next;
      cu_seek = seek;
      cu_block_max_score = block_max_score;
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
   linear scan of the dense list. *)
let mem_seek c target =
  let n = c.hi in
  let doc i = c.list.(i).Posting.doc_id in
  if c.pos < n && doc c.pos < target then begin
    let bound = ref 1 in
    while c.pos + !bound < n && doc (c.pos + !bound) < target do
      bound := !bound * 2
    done;
    (* Invariant: doc (pos + bound/2) < target <= doc (pos + bound)
       when in range; binary search in (pos + bound/2, pos + bound]. *)
    let lo = ref (c.pos + (!bound / 2) + 1)
    and hi = ref (min (c.pos + !bound) (n - 1)) in
    if c.pos + !bound >= n && doc (n - 1) < target then c.pos <- n
    else begin
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if doc mid < target then lo := mid + 1 else hi := mid
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

let mem_block_qmax c =
  let b = c.pos / block_size in
  if c.cb = b then c.cb_qmax
  else begin
    let q =
      match c.sidecar with
      | Some t -> (force_blocks t).b_qmax.(b)
      | None ->
          let lo = b * block_size
          and hi = Stdlib.min c.hi ((b + 1) * block_size) in
          let q = ref 0. in
          for i = lo to hi - 1 do
            let tf = Array.length c.list.(i).Posting.positions in
            let v = quantized_ceiling (impact ~tf) in
            if v > !q then q := v
          done;
          !q
    in
    c.cb <- b;
    c.cb_qmax <- q;
    q
  end

let block_max_score = function
  | Mem c -> if c.pos >= c.hi then 0. else mem_block_qmax c
  | Custom c -> c.cu_block_max_score ()

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
