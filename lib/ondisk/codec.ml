let block_size = 128
let n_blocks ~df = (df + block_size - 1) / block_size

(* One skip entry: u32le last doc id, u32le block offset (relative to
   the end of the skip table). *)
let skip_entry_size = 8

(* --- encoding ---------------------------------------------------------- *)

let u32_max = 0xFFFFFFFF

let add_u32le buf n = Buffer.add_int32_le buf (Int32.of_int n)

let encode out (posts : Pj_index.Posting.t array) =
  let df = Array.length posts in
  if df > 0 then begin
    let nb = n_blocks ~df in
    let blocks = Buffer.create 256 in
    let skip = Array.make nb (0, 0) in
    let prev_doc = ref (-1) in
    for b = 0 to nb - 1 do
      let off = Buffer.length blocks in
      if off > u32_max then
        invalid_arg "Ondisk.Codec.encode: term blob exceeds 4 GiB";
      let lo = b * block_size and hi = Stdlib.min df ((b + 1) * block_size) in
      for i = lo to hi - 1 do
        let p = posts.(i) in
        if p.Pj_index.Posting.doc_id <= !prev_doc then
          invalid_arg "Ondisk.Codec.encode: doc ids not strictly increasing";
        if p.Pj_index.Posting.doc_id > u32_max then
          invalid_arg "Ondisk.Codec.encode: doc id exceeds u32";
        Pj_util.Bytecodec.write_varint blocks
          (p.Pj_index.Posting.doc_id - !prev_doc);
        prev_doc := p.Pj_index.Posting.doc_id;
        let tf = Array.length p.Pj_index.Posting.positions in
        Pj_util.Bytecodec.write_varint blocks tf;
        let positions = p.Pj_index.Posting.positions in
        for k = 0 to tf - 1 do
          Pj_util.Bytecodec.write_varint blocks
            (positions.(k) - if k = 0 then -1 else positions.(k - 1))
        done
      done;
      skip.(b) <- (!prev_doc, off)
    done;
    Array.iter
      (fun (last, off) ->
        add_u32le out last;
        add_u32le out off)
      skip;
    Buffer.add_buffer out blocks
  end

(* --- decoding ---------------------------------------------------------- *)

type reader = { buf : Layout.buf; blob : int; df : int }

let skip_last r b = Layout.u32le r.buf (r.blob + (b * skip_entry_size))
let skip_off r b = Layout.u32le r.buf (r.blob + (b * skip_entry_size) + 4)
let blocks_start r = r.blob + (n_blocks ~df:r.df * skip_entry_size)

let block_doc_count r b =
  Stdlib.min block_size (r.df - (b * block_size))

type state = {
  r : reader;
  nb : int;
  mutable block : int;  (* current block; [nb] once exhausted *)
  mutable remaining : int;  (* postings after the current one in this block *)
  off : int ref;
      (* absolute offset of the next unread posting: the scan offset
         [Layout.read_varint] advances, one cell per cursor rather than
         one per posting read *)
  mutable doc : int;  (* current doc id; -1 exhausted *)
  mutable tf : int;
  mutable pos_off : int;  (* absolute offset of the current positions run *)
}

(* Byte [p] of a range the caller has bounds-checked; typed like
   [Layout.byte] so the load compiles inline. *)
let byte (buf : Layout.buf) p = Char.code (Bigarray.Array1.unsafe_get buf p)

(* [Layout.read_varint]'s limit, kept by the unchecked loops below: a
   9th byte above [0x3f] overflows a 63-bit [int]. *)
let overflow () = failwith "Ondisk: varint overflow"

(* The posting at [c.off], decoded with [Layout]'s checked accessors:
   any byte may be the last of the buffer. *)
let read_posting_checked c =
  let buf = c.r.buf and pos = c.off in
  let delta = Layout.read_varint buf ~pos in
  if delta <= 0 then failwith "Ondisk: corrupt posting block (zero doc delta)";
  c.doc <- c.doc + delta;
  c.tf <- Layout.read_varint buf ~pos;
  c.pos_off <- !pos;
  Layout.skip_varints buf ~pos c.tf;
  c.remaining <- c.remaining - 1

(* Decode the posting at [c.off] into the cursor fields; positions are
   only located (their offset recorded) and skipped, not decoded.

   Nearly every posting has a one-byte doc delta and a one-byte tf.
   Such a posting takes one bounds check, sized for its [tf] position
   varints at their 9-byte maximum, and is then read unchecked; the
   position skip keeps the overflow check, so it accepts exactly what
   [Layout.skip_varints] accepts. Anything else (a multi-byte varint,
   a zero delta, a posting near the end of the buffer) takes the
   checked path. *)
let read_posting c =
  let buf = c.r.buf and p = !(c.off) in
  let len = Layout.length buf in
  if p + 2 > len then read_posting_checked c
  else begin
    let delta = byte buf p and tf = byte buf (p + 1) in
    if delta = 0 || delta >= 0x80 || tf >= 0x80 || p + 2 + (9 * tf) > len then
      read_posting_checked c
    else begin
      c.doc <- c.doc + delta;
      c.tf <- tf;
      c.pos_off <- p + 2;
      let q = ref (p + 2) and left = ref tf and run = ref 0 in
      while !left > 0 do
        let v = byte buf !q in
        if !run = 8 && v > 0x3f then overflow ();
        incr q;
        if v < 0x80 then begin
          decr left;
          run := 0
        end
        else incr run
      done;
      c.off := !q;
      c.remaining <- c.remaining - 1
    end
  end

let exhaust c =
  c.block <- c.nb;
  c.doc <- -1

(* Jump straight to block [b]: the skip table supplies both the byte
   offset and the doc-id delta seed (block [b-1]'s last document). *)
let enter_block c b =
  if b >= c.nb then exhaust c
  else begin
    c.block <- b;
    c.off := blocks_start c.r + skip_off c.r b;
    c.remaining <- block_doc_count c.r b;
    c.doc <- (if b = 0 then -1 else skip_last c.r (b - 1));
    read_posting c
  end

let state_create r =
  let c =
    {
      r;
      nb = n_blocks ~df:r.df;
      block = 0;
      remaining = 0;
      off = ref 0;
      doc = -1;
      tf = 0;
      pos_off = 0;
    }
  in
  if c.nb = 0 then exhaust c else enter_block c 0;
  c

let state_next c =
  if c.doc >= 0 then
    if c.remaining > 0 then read_posting c else enter_block c (c.block + 1)

(* Positions increase strictly from -1 and stay non-negative, so every
   gap is at least 1 and no sum wraps past [max_int]: anything else is
   corruption, refused on both paths below. *)
let[@inline] next_position prev gap =
  let p = prev + gap in
  if gap = 0 || p < 0 then
    failwith "Ondisk: corrupt position run (zero gap or overflow)";
  p

(* The current posting's positions. [read_posting] has already
   skipped the run, so it ends inside the buffer; when the run fits at
   9 bytes a varint it is decoded with that one check. *)
let state_positions c =
  let buf = c.r.buf and tf = c.tf in
  let a = Array.make tf 0 and prev = ref (-1) in
  if c.pos_off + (9 * tf) <= Layout.length buf then begin
    let p = ref c.pos_off in
    for i = 0 to tf - 1 do
      let v = ref 0 and shift = ref 0 and b = ref (byte buf !p) in
      while !b >= 0x80 do
        v := !v lor ((!b land 0x7f) lsl !shift);
        shift := !shift + 7;
        incr p;
        b := byte buf !p;
        if !shift = 56 && !b > 0x3f then overflow ()
      done;
      incr p;
      prev := next_position !prev (!v lor (!b lsl !shift));
      a.(i) <- !prev
    done
  end
  else begin
    let pos = ref c.pos_off in
    for i = 0 to tf - 1 do
      prev := next_position !prev (Layout.read_varint buf ~pos);
      a.(i) <- !prev
    done
  end;
  a

let state_current c =
  if c.doc < 0 then None
  else
    Some (Pj_index.Posting.of_sorted ~doc_id:c.doc ~positions:(state_positions c))

(* First block in [from, nb) whose last doc id reaches [target]:
   gallop to bracket it, then binary-search the bracket — O(log
   distance) skip-entry probes, never a block decode. *)
let find_block c ~from target =
  if from >= c.nb then c.nb
  else begin
    let step = ref 1 and hi = ref from in
    while !hi < c.nb && skip_last c.r !hi < target do
      hi := !hi + !step;
      step := !step * 2
    done;
    let lo = ref (Stdlib.max from (!hi - (!step / 2))) and hi = ref (Stdlib.min !hi (c.nb - 1)) in
    if skip_last c.r !hi < target then c.nb
    else begin
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if skip_last c.r mid < target then lo := mid + 1 else hi := mid
      done;
      !lo
    end
  end

let state_seek c target =
  if c.doc >= 0 && c.doc < target then
    if target <= skip_last c.r c.block then
      (* The target lives in the current block: linear within it. *)
      while c.doc >= 0 && c.doc < target do
        state_next c
      done
    else begin
      let b = find_block c ~from:(c.block + 1) target in
      if b >= c.nb then exhaust c
      else begin
        enter_block c b;
        (* Guaranteed to stop: this block's last doc id >= target. *)
        while c.doc < target do
          read_posting c
        done
      end
    end

let state_block_last c = if c.doc < 0 then -1 else skip_last c.r c.block

let cursor r =
  let c = state_create r in
  Pj_index.Posting_list.custom
    ~current:(fun () -> state_current c)
    ~current_doc:(fun () -> c.doc)
    ~next:(fun () -> state_next c)
    ~seek:(fun target -> state_seek c target)
    ~block_last_doc:(fun () -> state_block_last c)

(* Range restriction for shard views: start at [lo], report exhaustion
   at the first document >= [hi]. The underlying state still sits on
   that document, but every accessor masks it, so the shard behaves
   exactly like an index built over the sub-corpus. *)
let cursor_in_range r ~lo ~hi =
  let c = state_create r in
  state_seek c lo;
  let live () = c.doc >= 0 && c.doc < hi in
  Pj_index.Posting_list.custom
    ~current:(fun () -> if live () then state_current c else None)
    ~current_doc:(fun () -> if live () then c.doc else -1)
    ~next:(fun () -> if live () then state_next c)
    ~seek:(fun target -> if live () then state_seek c target)
    ~block_last_doc:(fun () ->
      if live () then Stdlib.min (state_block_last c) (hi - 1) else -1)

let decode r =
  let c = state_create r in
  let out = Pj_util.Vec.create () in
  while c.doc >= 0 do
    Option.iter (Pj_util.Vec.push out) (state_current c);
    state_next c
  done;
  Pj_index.Posting_list.of_sorted_array (Pj_util.Vec.to_array out)

let count_in_range r ~lo ~hi =
  if lo >= hi then 0
  else begin
    let nb = n_blocks ~df:r.df in
    let count = ref 0 and b = ref 0 and stop = ref false in
    while (not !stop) && !b < nb do
      let last = skip_last r !b in
      (* The block's first document is at least [prev_last + 1]. *)
      let first_floor = if !b = 0 then 0 else skip_last r (!b - 1) + 1 in
      if last < lo then () (* wholly before the range *)
      else if first_floor >= hi then stop := true
      else if first_floor >= lo && last < hi then
        (* wholly inside: the skip table already knows its size *)
        count := !count + block_doc_count r !b
      else begin
        (* straddles a boundary: walk it *)
        let c = state_create r in
        enter_block c !b;
        let continue = ref true in
        while !continue && c.doc >= 0 && c.block = !b do
          if c.doc >= hi then continue := false
          else begin
            if c.doc >= lo then incr count;
            if c.remaining > 0 then read_posting c else continue := false
          end
        done
      end;
      incr b
    done;
    !count
  end

let blob_length r =
  let nb = n_blocks ~df:r.df in
  if nb = 0 then 0
  else begin
    (* Walk the last block to find where its bytes end. *)
    let c = state_create r in
    enter_block c (nb - 1);
    while c.remaining > 0 do
      read_posting c
    done;
    !(c.off) - r.blob
  end

let last_doc r = skip_last r (n_blocks ~df:r.df - 1)

let check_blob r =
  let nb = n_blocks ~df:r.df in
  let expected_off = ref 0 in
  for b = 0 to nb - 1 do
    if skip_off r b <> !expected_off then
      failwith
        (Printf.sprintf "Ondisk: skip entry %d offset %d, expected %d" b
           (skip_off r b) !expected_off);
    let c = state_create r in
    enter_block c b;
    let prev = ref (if b = 0 then -1 else skip_last r (b - 1)) in
    let walk () =
      if c.doc <= !prev then
        failwith "Ondisk: doc ids not strictly increasing in block";
      prev := c.doc;
      ignore (state_positions c)
    in
    walk ();
    while c.remaining > 0 do
      read_posting c;
      walk ()
    done;
    if c.doc <> skip_last r b then
      failwith
        (Printf.sprintf "Ondisk: block %d last doc %d, skip entry says %d" b
           c.doc (skip_last r b));
    expected_off := !(c.off) - blocks_start r
  done
