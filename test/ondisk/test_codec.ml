(* Property tests of the PJX4 block codec: delta+varint round trips,
   skip-table navigation, corrupt and overflowing varints. *)

open Pj_ondisk

(* --- generators -------------------------------------------------------- *)

(* A sorted postings array: random positive doc-id gaps (now and then
   exactly 127 or 128, the last one-byte delta and the first two-byte
   one) and random position lists. Most postings have a one-byte tf and
   one-byte position gaps, the shape the cursor's fast path decodes;
   some have a tf of 120-300 (a two-byte tf from 128 on) or position
   gaps of 2^14 and more (three-byte varints). Sizes cross the 128-doc
   block boundary so multi-block lists are routine. *)
let postings_gen =
  QCheck.Gen.(
    let of_gaps gaps =
      let prev = ref (-1) in
      Array.of_list
        (List.map
           (fun gap ->
             prev := !prev + gap;
             !prev)
           gaps)
    in
    let posting_positions =
      frequency
        [
          (8, list_size (int_range 1 6) (int_range 1 1_000));
          (1, list_size (int_range 120 300) (int_range 1 3));
          (1, list_size (int_range 1 4) (int_range (1 lsl 14) (1 lsl 22)));
        ]
      >|= of_gaps
    in
    let* df = oneof [ int_range 0 4; int_range 120 140; int_range 250 300 ] in
    let* gaps =
      list_repeat df
        (frequency
           [
             (4, int_range 1 3);
             (4, int_range 1 10_000);
             (1, return 127);
             (1, return 128);
           ])
    in
    let* positions = list_repeat df posting_positions in
    let doc = ref (-1) in
    return
      (Array.of_list
         (List.map2
            (fun gap positions ->
              doc := !doc + gap;
              Pj_index.Posting.make ~doc_id:!doc ~positions)
            gaps positions)))

let postings_print posts =
  String.concat ";"
    (Array.to_list
       (Array.map
          (fun p ->
            Printf.sprintf "%d(tf %d)" p.Pj_index.Posting.doc_id
              (Array.length p.Pj_index.Posting.positions))
          posts))

let postings_arb = QCheck.make ~print:postings_print postings_gen

(* Bytes after a blob's end. [0xff] never ends a varint, so a decoder
   that reads past the blob fails or decodes garbage instead of
   succeeding by accident. 2 KiB covers the fast path's bound for any
   one-byte tf. *)
let padding = String.make 2048 '\xff'

(* A reader over [bytes] as if mapped from disk: the blob ends flush
   with the buffer (so the final postings take the cursor's checked
   path), or [~padded] sits before trailing bytes (so they take the
   fast path, like every blob but the last of a real file). *)
let reader_of_bytes ~padded ~df bytes =
  let buf = Layout.of_string (if padded then bytes ^ padding else bytes) in
  { Codec.buf; blob = 0; df }

let encoded posts =
  let buf = Buffer.create 256 in
  Codec.encode buf posts;
  Buffer.contents buf

let reader_of posts =
  reader_of_bytes ~padded:false ~df:(Array.length posts) (encoded posts)

(* A property of a reader holds for both buffer shapes. *)
let both_readers posts prop =
  let bytes = encoded posts and df = Array.length posts in
  prop (reader_of_bytes ~padded:false ~df bytes)
  && prop (reader_of_bytes ~padded:true ~df bytes)

let decode_all r =
  Array.of_list (Pj_index.Posting_list.to_list (Codec.decode r))

let posting_equal a b =
  a.Pj_index.Posting.doc_id = b.Pj_index.Posting.doc_id
  && a.Pj_index.Posting.positions = b.Pj_index.Posting.positions

(* --- round trips ------------------------------------------------------- *)

let roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"encode/decode round trip" postings_arb
       (fun posts ->
         both_readers posts (fun r ->
             let back = decode_all r in
             Array.length back = Array.length posts
             && Array.for_all2 posting_equal posts back)))

let test_empty_list () =
  let r = reader_of [||] in
  Alcotest.(check int) "no blocks" 0 (Codec.n_blocks ~df:0);
  Alcotest.(check int) "decodes empty" 0 (Array.length (decode_all r));
  let c = Codec.cursor r in
  Alcotest.(check int) "cursor exhausted" (-1)
    (Pj_index.Posting_list.current_doc c);
  Alcotest.(check int) "no block" (-1)
    (Pj_index.Posting_list.block_last_doc c)

let test_single_posting_blocks () =
  (* One document exactly fills the degenerate single-entry block. *)
  List.iter
    (fun doc_id ->
      let posts = [| Pj_index.Posting.make ~doc_id ~positions:[| 0; 7 |] |] in
      let back = decode_all (reader_of posts) in
      Alcotest.(check int) "df" 1 (Array.length back);
      Alcotest.(check bool) "posting" true (posting_equal posts.(0) back.(0)))
    [ 0; 1; 127; 128; 0xFFFFFFFF ]

let test_u32_ceiling_enforced () =
  let posts =
    [| Pj_index.Posting.make ~doc_id:0x1_0000_0000 ~positions:[| 0 |] |]
  in
  Alcotest.check_raises "doc id too large"
    (Invalid_argument "Ondisk.Codec.encode: doc id exceeds u32") (fun () ->
      Codec.encode (Buffer.create 16) posts)

let test_unsorted_rejected () =
  let posts =
    [|
      Pj_index.Posting.make ~doc_id:5 ~positions:[| 0 |];
      Pj_index.Posting.make ~doc_id:5 ~positions:[| 1 |];
    |]
  in
  Alcotest.check_raises "duplicate doc id"
    (Invalid_argument "Ondisk.Codec.encode: doc ids not strictly increasing")
    (fun () -> Codec.encode (Buffer.create 16) posts)

(* Block boundaries: exactly block_size, one less, one more. *)
let test_block_boundaries () =
  List.iter
    (fun df ->
      let posts =
        Array.init df (fun i ->
            Pj_index.Posting.make ~doc_id:(i * 3) ~positions:[| i |])
      in
      let r = reader_of posts in
      Alcotest.(check int)
        (Printf.sprintf "n_blocks of %d" df)
        ((df + Codec.block_size - 1) / Codec.block_size)
        (Codec.n_blocks ~df);
      let back = decode_all r in
      Alcotest.(check bool)
        (Printf.sprintf "round trip at df %d" df)
        true
        (Array.for_all2 posting_equal posts back))
    [ Codec.block_size - 1; Codec.block_size; Codec.block_size + 1; 2 * Codec.block_size ]

(* --- cursor navigation ------------------------------------------------- *)

(* The codec cursor must agree with the in-memory array cursor under
   an arbitrary interleaving of next and (monotone) seek. *)
let cursor_agrees =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"codec cursor = array cursor"
       QCheck.(pair postings_arb (small_list (int_bound 30)))
       (fun (posts, steps) ->
         both_readers posts @@ fun r ->
         let mem =
           Pj_index.Posting_list.cursor
             (Pj_index.Posting_list.of_postings (Array.to_list posts))
         in
         let disk = Codec.cursor r in
         let ok = ref true in
         let check_here () =
           if
             Pj_index.Posting_list.current_doc mem
             <> Pj_index.Posting_list.current_doc disk
           then ok := false;
           match
             ( Pj_index.Posting_list.current mem,
               Pj_index.Posting_list.current disk )
           with
           | None, None -> ()
           | Some a, Some b when posting_equal a b -> ()
           | _ -> ok := false
         in
         check_here ();
         List.iter
           (fun step ->
             if step mod 3 = 0 then begin
               Pj_index.Posting_list.next mem;
               Pj_index.Posting_list.next disk
             end
             else begin
               let target = Pj_index.Posting_list.current_doc mem + step in
               Pj_index.Posting_list.seek mem target;
               Pj_index.Posting_list.seek disk target
             end;
             check_here ())
           steps;
         !ok))

(* Block boundaries: at every cursor position block_last_doc names the
   final document of the current block. *)
let block_last_doc_sound =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"block last doc is the block's last doc"
       postings_arb (fun posts ->
         QCheck.assume (Array.length posts > 0);
         let r = reader_of posts in
         let c = Codec.cursor r in
         let ok = ref true in
         let visited = ref 0 in
         while Pj_index.Posting_list.current_doc c >= 0 do
           let i = !visited in
           let block = i / Codec.block_size in
           let hi =
             Stdlib.min (Array.length posts) ((block + 1) * Codec.block_size)
           in
           if
             Pj_index.Posting_list.block_last_doc c
             <> posts.(hi - 1).Pj_index.Posting.doc_id
           then ok := false;
           incr visited;
           Pj_index.Posting_list.next c
         done;
         !ok && !visited = Array.length posts))

let count_in_range_agrees =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"count_in_range = naive count"
       QCheck.(pair postings_arb (pair (int_bound 60_000) (int_bound 60_000)))
       (fun (posts, (a, b)) ->
         let lo, hi = (Stdlib.min a b, Stdlib.max a b) in
         both_readers posts @@ fun r ->
         let naive =
           Array.fold_left
             (fun acc p ->
               if p.Pj_index.Posting.doc_id >= lo && p.Pj_index.Posting.doc_id < hi
               then acc + 1
               else acc)
             0 posts
         in
         Codec.count_in_range r ~lo ~hi = naive))

let range_cursor_agrees =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"cursor_in_range visits exactly the range"
       QCheck.(pair postings_arb (pair (int_bound 60_000) (int_bound 60_000)))
       (fun (posts, (a, b)) ->
         let lo, hi = (Stdlib.min a b, Stdlib.max a b) in
         both_readers posts @@ fun r ->
         let c = Codec.cursor_in_range r ~lo ~hi in
         let expect =
           Array.to_list posts
           |> List.filter (fun p ->
                  p.Pj_index.Posting.doc_id >= lo
                  && p.Pj_index.Posting.doc_id < hi)
         in
         let got = ref [] in
         while Pj_index.Posting_list.current_doc c >= 0 do
           (match Pj_index.Posting_list.current c with
           | Some p -> got := p :: !got
           | None -> ());
           Pj_index.Posting_list.next c
         done;
         let got = List.rev !got in
         List.length got = List.length expect
         && List.for_all2 posting_equal got expect))

(* The range view's block boundary: the last document of the block
   under the cursor, clamped to [hi - 1], so a shard never reports a
   boundary past its own documents. *)
let range_block_last_doc_clamped =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"cursor_in_range block last doc: the block's, clamped to hi - 1"
       QCheck.(pair postings_arb (pair (int_bound 60_000) (int_bound 60_000)))
       (fun (posts, (a, b)) ->
         let lo, hi = (Stdlib.min a b, Stdlib.max a b) in
         both_readers posts @@ fun r ->
         let c = Codec.cursor_in_range r ~lo ~hi in
         let ok = ref true in
         Array.iteri
           (fun i p ->
             let d = p.Pj_index.Posting.doc_id in
             if d >= lo && d < hi then begin
               let last =
                 Stdlib.min (Array.length posts)
                   (((i / Codec.block_size) + 1) * Codec.block_size)
                 - 1
               in
               if
                 Pj_index.Posting_list.current_doc c <> d
                 || Pj_index.Posting_list.block_last_doc c
                    <> Stdlib.min posts.(last).Pj_index.Posting.doc_id (hi - 1)
               then ok := false;
               Pj_index.Posting_list.next c
             end)
           posts;
         !ok && Pj_index.Posting_list.block_last_doc c = -1))

let check_blob_accepts =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"check_blob accepts every encoding"
       postings_arb (fun posts ->
         both_readers posts (fun r ->
             Codec.check_blob r;
             true)))

(* --- hot-path allocation and corrupt position runs ------------------ *)

(* Walking a cursor reads postings and skip entries in place: no heap
   cell per posting or per skip probe. Only the cursor itself (its state
   and closures) may allocate, so the budget is a constant however many
   postings and blocks are crossed. *)
let test_cursor_walk_noalloc () =
  let n = 2_000 in
  let posts =
    Array.init n (fun i ->
        Pj_index.Posting.of_sorted ~doc_id:(i * 300)
          ~positions:(Array.init (1 + (i mod 4)) (fun k -> (k * 200) + i)))
  in
  let r = reader_of posts in
  let budget = 100. in
  let w0 = Gc.minor_words () in
  let c = Codec.cursor r in
  let walked = ref 0 in
  while Pj_index.Posting_list.current_doc c >= 0 do
    incr walked;
    Pj_index.Posting_list.next c
  done;
  let walk_words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "walked every posting" n !walked;
  let w0 = Gc.minor_words () in
  let c = Codec.cursor r in
  let target = ref 0 and landed = ref 0 in
  while Pj_index.Posting_list.current_doc c >= 0 do
    (* within-block steps and multi-block leaps through the skip table *)
    target := !target + if !landed mod 8 = 7 then 60_000 else 700;
    Pj_index.Posting_list.seek c !target;
    incr landed
  done;
  let seek_words = Gc.minor_words () -. w0 in
  if walk_words > budget || seek_words > budget then
    Alcotest.failf "allocated %.0f words walking, %.0f seeking (budget %.0f)"
      walk_words seek_words budget

(* The version-5 blob layout, byte for byte: per block an 8-byte skip
   entry [u32le last doc | u32le offset into the blocks], then per
   posting [varint doc delta | varint tf | tf x varint position gap].
   Doc deltas and the first position gap count from -1, and the doc
   chain runs on across blocks. *)
let test_blob_bytes () =
  let encode posts =
    let b = Buffer.create 64 in
    Codec.encode b posts;
    Buffer.contents b
  in
  let hex s =
    String.concat " "
      (List.map
         (fun c -> Printf.sprintf "%02x" (Char.code c))
         (List.of_seq (String.to_seq s)))
  in
  let bytes l = String.of_seq (Seq.map Char.chr (List.to_seq l)) in
  let posting doc positions =
    Pj_index.Posting.make ~doc_id:doc ~positions:(Array.of_list positions)
  in
  Alcotest.(check string) "one block"
    (hex
       (bytes
          ([ 0x2c; 0x01; 0x00; 0x00; 0x00; 0x00; 0x00; 0x00 ]
          @ [ 0x01; 0x02; 0x01; 0x03 ] (* doc 0, positions 0 3 *)
          @ [ 0x05; 0x01; 0x03 ] (* doc 5, position 2 *)
          @ [ 0xa7; 0x02; 0x02; 0x02; 0x81; 0x01 ] (* doc 300, 1 130 *))))
    (hex (encode [| posting 0 [ 0; 3 ]; posting 5 [ 2 ]; posting 300 [ 1; 130 ] |]));
  (* Docs 0..128 at position 0: three bytes a posting, and a second
     block of one posting whose delta counts from doc 127. *)
  let n = Codec.block_size + 1 in
  let blob = encode (Array.init n (fun d -> posting d [ 0 ])) in
  let first = 3 * Codec.block_size in
  Alcotest.(check string) "two skip entries"
    (hex
       (bytes
          [ 0x7f; 0x00; 0x00; 0x00; 0x00; 0x00; 0x00; 0x00;
            0x80; 0x00; 0x00; 0x00; first land 0xff; first lsr 8; 0x00; 0x00 ]))
    (hex (String.sub blob 0 16));
  Alcotest.(check string) "second block" "01 01 01"
    (hex (String.sub blob (16 + first) 3));
  Alcotest.(check int) "blob length" (16 + (3 * n)) (String.length blob);
  Alcotest.(check int) "blob_length reads it back" (String.length blob)
    (Codec.blob_length (reader_of_bytes ~padded:true ~df:n blob))

(* A one-block blob by hand: the skip entry (last doc, offset 0)
   followed by the raw block bytes. *)
let blob ~last bytes =
  let b = Buffer.create 32 in
  Buffer.add_int32_le b (Int32.of_int last);
  Buffer.add_int32_le b 0l;
  List.iter (fun byte -> Buffer.add_char b (Char.chr byte)) bytes;
  Buffer.contents b

let corrupt_blobs =
  [
    (* doc 0, tf 2: the last position varint is cut off by the end of
       the blob *)
    ("unterminated last position", 1,
     blob ~last:0 [ 0x01; 0x02; 0x05; 0x83 ]);
    (* doc 0, tf 1: one position varint of 10 bytes *)
    ("10-byte position varint", 1,
     blob ~last:0
       ([ 0x01; 0x01 ] @ List.init 9 (fun _ -> 0x80) @ [ 0x01 ]));
    (* three docs; the second one's last position never terminates and
       runs through the third posting to the end of the blob *)
    ("unterminated mid-block position", 3,
     blob ~last:2
       [ 0x01; 0x01; 0x04; 0x01; 0x02; 0x03; 0x85; 0x81; 0x80; 0x81; 0x82 ]);
  ]

let ondisk_failure f =
  match f () with
  | () -> None
  | exception Failure msg when String.starts_with ~prefix:"Ondisk: " msg ->
      Some msg

let test_corrupt_position_runs () =
  List.iter
    (fun (name, df, bytes) ->
      List.iter
        (fun padded ->
          let r = reader_of_bytes ~padded ~df bytes in
          let name = if padded then name ^ " (padded)" else name in
          let walk () =
            let c = Codec.cursor r in
            while Pj_index.Posting_list.current_doc c >= 0 do
              Pj_index.Posting_list.next c
            done
          in
          if ondisk_failure walk = None then
            Alcotest.failf "%s: cursor walk did not fail" name;
          if ondisk_failure (fun () -> ignore (Codec.decode r)) = None then
            Alcotest.failf "%s: decode did not fail" name)
        [ false; true ])
    corrupt_blobs

(* Position runs with a zero gap: doc 0, tf 2, gaps 1 and 0 (two
   positions at 0), and doc 0, tf 1, gap 0 (position -1). *)
let zero_gap_blobs =
  [
    ("repeated position", blob ~last:0 [ 0x01; 0x02; 0x01; 0x00 ]);
    ("position -1", blob ~last:0 [ 0x01; 0x01; 0x00 ]);
  ]

let test_zero_position_gap () =
  List.iter
    (fun (name, bytes) ->
      List.iter
        (fun padded ->
          let r = reader_of_bytes ~padded ~df:1 bytes in
          let name = if padded then name ^ " (padded)" else name in
          let current () =
            ignore (Pj_index.Posting_list.current (Codec.cursor r))
          in
          List.iter
            (fun (what, f) ->
              if ondisk_failure f = None then
                Alcotest.failf "%s: %s did not fail" name what)
            [
              ("cursor current", current);
              ("decode", fun () -> ignore (Codec.decode r));
              ("check_blob", fun () -> Codec.check_blob r);
            ])
        [ false; true ])
    zero_gap_blobs

(* --- varint limits ----------------------------------------------------- *)

let string_of_bytes bytes = String.of_seq (Seq.map Char.chr (List.to_seq bytes))

(* Nine bytes whose last is above 0x3f: bits past the 63rd, which would
   decode to -1. *)
let overflowing = List.init 8 (fun _ -> 0xff) @ [ 0x7f ]

(* One-posting blobs (doc 0) carrying that varint as the tf and as a
   position gap. The position blob has tf 2, so flush with the buffer
   it fails the fast path's bound and takes the checked path. *)
let overflow_blobs =
  [
    ("tf", blob ~last:0 (0x01 :: overflowing));
    ("position gap", blob ~last:0 ([ 0x01; 0x02 ] @ overflowing @ [ 0x01 ]));
  ]

let test_varint_overflow () =
  let overflow = Failure "Ondisk: varint overflow" in
  let buf = Layout.of_string (string_of_bytes overflowing) in
  Alcotest.check_raises "read_varint" overflow (fun () ->
      ignore (Layout.read_varint buf ~pos:(ref 0)));
  Alcotest.check_raises "skip_varints" overflow (fun () ->
      Layout.skip_varints buf ~pos:(ref 0) 1);
  (* The largest 9-byte varint still reads. *)
  let widest =
    Layout.of_string (string_of_bytes (List.init 8 (fun _ -> 0xff) @ [ 0x3f ]))
  in
  let pos = ref 0 in
  Alcotest.(check int) "ff x8 3f" max_int (Layout.read_varint widest ~pos);
  Alcotest.(check int) "read 9 bytes" 9 !pos;
  let pos = ref 0 in
  Layout.skip_varints widest ~pos 1;
  Alcotest.(check int) "skipped 9 bytes" 9 !pos;
  List.iter
    (fun (name, bytes) ->
      List.iter
        (fun padded ->
          let r = reader_of_bytes ~padded ~df:1 bytes in
          let name = if padded then name ^ " (padded)" else name in
          Alcotest.check_raises (name ^ ": cursor current") overflow (fun () ->
              ignore (Pj_index.Posting_list.current (Codec.cursor r)));
          Alcotest.check_raises (name ^ ": check_blob") overflow (fun () ->
              Codec.check_blob r);
          Alcotest.check_raises (name ^ ": decode") overflow (fun () ->
              ignore (Codec.decode r)))
        [ false; true ])
    overflow_blobs

(* Bytes near the varint limits: terminators, continuation bytes, and
   0x3f / 0x40, the largest and smallest 9th byte. *)
let limit_bytes_gen =
  QCheck.Gen.(
    list_size (int_range 0 24)
      (oneofl [ 0x00; 0x01; 0x3f; 0x40; 0x7f; 0x80; 0xbf; 0xff ]))

let outcome f =
  match f () with
  | v -> Ok v
  | exception Failure msg -> (
      match String.index_opt msg ':' with
      | Some i -> Error (String.sub msg (i + 1) (String.length msg - i - 1))
      | None -> Error msg)

(* [Layout]'s varint reader and skipper accept exactly the varints
   [Bytecodec] accepts, with the same value, length and failure. *)
let varints_agree_with_bytecodec =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2000 ~name:"layout varints = bytecodec varints"
       (QCheck.make limit_bytes_gen) (fun bytes ->
         let s = string_of_bytes bytes in
         let buf = Layout.of_string s in
         let read f =
           outcome (fun () ->
               let pos = ref 0 in
               let v = f pos in
               (v, !pos))
         in
         let expect = read (fun pos -> Pj_util.Bytecodec.read_varint s ~pos) in
         read (fun pos -> Layout.read_varint buf ~pos) = expect
         && read (fun pos -> Layout.skip_varints buf ~pos 1; 0)
            = Result.map (fun (_, len) -> (0, len)) expect))

(* One posting (doc 0) whose position run is arbitrary bytes: the
   cursor, through the fast path (padded) or the checked path (flush,
   when the run is shorter than 9 bytes a position), decodes the run
   exactly as [Layout.read_varint] does, or fails like it. *)
let position_run_paths_agree =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2000 ~name:"position run: fast path = checked path"
       QCheck.(pair (int_range 1 3) (make limit_bytes_gen))
       (fun (tf, bytes) ->
         let run = Layout.of_string (string_of_bytes bytes) in
         let expect =
           outcome (fun () ->
               let pos = ref 0 and prev = ref (-1) in
               Array.init tf (fun _ ->
                   let gap = Layout.read_varint run ~pos in
                   if gap = 0 || !prev + gap < 0 then
                     failwith "Ondisk: corrupt position run";
                   prev := !prev + gap;
                   !prev))
         in
         let bytes = blob ~last:0 ([ 0x01; tf ] @ bytes) in
         List.for_all
           (fun padded ->
             let r = reader_of_bytes ~padded ~df:1 bytes in
             let got =
               outcome (fun () ->
                   match Pj_index.Posting_list.current (Codec.cursor r) with
                   | Some p -> p.Pj_index.Posting.positions
                   | None -> [||])
             in
             match (expect, got) with
             | Ok a, Ok b -> a = b
             | Error _, Error _ -> true
             | _ -> false)
           [ false; true ]))

let suite =
  [
    roundtrip;
    ("codec: empty list", `Quick, test_empty_list);
    ("codec: single posting blocks", `Quick, test_single_posting_blocks);
    ("codec: u32 doc-id ceiling", `Quick, test_u32_ceiling_enforced);
    ("codec: unsorted rejected", `Quick, test_unsorted_rejected);
    ("codec: block boundaries", `Quick, test_block_boundaries);
    cursor_agrees;
    block_last_doc_sound;
    count_in_range_agrees;
    range_cursor_agrees;
    range_block_last_doc_clamped;
    check_blob_accepts;
    ("codec: cursor walk allocates nothing per posting", `Quick,
     test_cursor_walk_noalloc);
    ("codec: version-5 blob bytes", `Quick, test_blob_bytes);
    ("codec: corrupt position run fails", `Quick, test_corrupt_position_runs);
    ("codec: zero position gap fails", `Quick, test_zero_position_gap);
    ("codec: varint overflow fails", `Quick, test_varint_overflow);
    varints_agree_with_bytecodec;
    position_run_paths_agree;
  ]
