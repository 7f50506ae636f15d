open Pj_index

let list_of_doc_ids ids =
  Posting_list.of_postings
    (List.map (fun d -> Posting.make ~doc_id:d ~positions:[| 0 |]) ids)

let current_doc_ids c =
  let rec go acc =
    match Posting_list.current c with
    | None -> List.rev acc
    | Some p ->
        Posting_list.next c;
        go (p.Posting.doc_id :: acc)
  in
  go []

let test_empty () =
  let c = Posting_list.cursor Posting_list.empty in
  Alcotest.(check bool) "current" true (Posting_list.current c = None);
  Alcotest.(check int) "current_doc" (-1) (Posting_list.current_doc c);
  Posting_list.next c;
  Posting_list.seek c 42;
  Alcotest.(check bool) "still exhausted" true (Posting_list.current c = None)

let test_walk () =
  let pl = list_of_doc_ids [ 1; 3; 7; 8; 20 ] in
  let c = Posting_list.cursor pl in
  Alcotest.(check (list int)) "walk order" [ 1; 3; 7; 8; 20 ]
    (current_doc_ids c);
  Alcotest.(check int) "exhausted" (-1) (Posting_list.current_doc c)

let test_seek_semantics () =
  let pl = list_of_doc_ids [ 1; 3; 7; 8; 20 ] in
  let c = Posting_list.cursor pl in
  Posting_list.seek c 3;
  Alcotest.(check int) "present target" 3 (Posting_list.current_doc c);
  Posting_list.seek c 4;
  Alcotest.(check int) "absent target lands after" 7
    (Posting_list.current_doc c);
  (* Seeking backwards never moves the cursor. *)
  Posting_list.seek c 1;
  Alcotest.(check int) "backwards no-op" 7 (Posting_list.current_doc c);
  Posting_list.seek c 7;
  Alcotest.(check int) "current target no-op" 7 (Posting_list.current_doc c);
  Posting_list.seek c 20;
  Alcotest.(check int) "gallop to last" 20 (Posting_list.current_doc c);
  Posting_list.seek c 21;
  Alcotest.(check int) "past end exhausts" (-1) (Posting_list.current_doc c)

let test_seek_first_element () =
  let pl = list_of_doc_ids [ 5; 9 ] in
  let c = Posting_list.cursor pl in
  Posting_list.seek c 2;
  Alcotest.(check int) "below first is no-op" 5 (Posting_list.current_doc c)

(* Galloping seek must land exactly where a linear scan would, from any
   starting position and for any target — including long jumps that
   exercise the doubling probe and jumps past the end. The model is a
   persistent index advanced linearly, so it also checks that seek
   never rewinds. *)
let test_seek_matches_linear_scan () =
  let rng = Pj_util.Prng.create 11 in
  for trial = 1 to 200 do
    let n = 1 + Pj_util.Prng.int rng 60 in
    let set = Hashtbl.create n in
    for _ = 1 to n do
      Hashtbl.replace set (Pj_util.Prng.int rng 500) ()
    done;
    let ids =
      Array.of_list
        (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) set []))
    in
    let len = Array.length ids in
    let pl = list_of_doc_ids (Array.to_list ids) in
    let c = Posting_list.cursor pl in
    let mpos = ref 0 in
    for _ = 1 to 40 do
      (if Pj_util.Prng.int rng 4 = 0 then begin
         Posting_list.next c;
         if !mpos < len then incr mpos
       end
       else begin
         let target = Pj_util.Prng.int rng 600 in
         Posting_list.seek c target;
         while !mpos < len && ids.(!mpos) < target do
           incr mpos
         done
       end);
      let expected = if !mpos < len then ids.(!mpos) else -1 in
      let got = Posting_list.current_doc c in
      if got <> expected then
        Alcotest.failf "trial %d: cursor at %d, model at %d (ids %s)" trial got
          expected
          (String.concat ","
             (List.map string_of_int (Array.to_list ids)))
    done
  done

(* A heap cursor seeks in place, over a whole list or over a prefix
   of a growing array: no closure, cell or option per seek. Only the
   cursor itself and [Gc.minor_words]' results may allocate, so the
   budget is a constant however many seeks run. *)
let test_seek_noalloc () =
  let n = 100_000 in
  let posts =
    Array.init n (fun i -> Posting.of_sorted ~doc_id:(i * 3) ~positions:[| i |])
  in
  let budget = 100. in
  List.iter
    (fun (what, make) ->
      let w0 = Gc.minor_words () in
      let c = make () in
      let target = ref 0 and seeks = ref 0 in
      while Posting_list.current_doc c >= 0 do
        (* short hops within a block and long gallops across many *)
        target := !target + if !seeks mod 16 = 15 then 1_000 else 7;
        Posting_list.seek c !target;
        incr seeks
      done;
      let words = Gc.minor_words () -. w0 in
      if !seeks < 1_000 then Alcotest.failf "%s: only %d seeks" what !seeks;
      if words > budget then
        Alcotest.failf "%s: %.0f words over %d seeks (budget %.0f)" what words
          !seeks budget)
    [
      ( "heap cursor",
        fun () -> Posting_list.cursor (Posting_list.of_sorted_array posts) );
      ("prefix cursor", fun () -> Posting_list.cursor_prefix posts ~len:(n / 2));
    ]

let suite =
  [
    ("cursor: empty list", `Quick, test_empty);
    ("cursor: walk", `Quick, test_walk);
    ("cursor: seek semantics", `Quick, test_seek_semantics);
    ("cursor: seek below first", `Quick, test_seek_first_element);
    ("cursor: seek = linear scan", `Quick, test_seek_matches_linear_scan);
    ("cursor: seek allocates nothing", `Quick, test_seek_noalloc);
  ]
