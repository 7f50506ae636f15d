(* Persistence roundtrips: a reopened live index must answer every
   query with results structurally identical to the index that wrote
   the manifest — same doc ids, same scores, same matchsets (token ids
   included, which is what forces the manifest to carry the vocabulary
   in interning order). *)

open Pj_live

let scoring = Pj_core.Scoring.Win (Pj_core.Scoring.win_exponential ~alpha:0.3)

let query =
  Pj_matching.Query.make "ab"
    [ Pj_matching.Matcher.exact "aa"; Pj_matching.Matcher.exact "bb" ]

let counter = ref 0

let fresh_dir () =
  incr counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pj_live_test_%d_%d" (Unix.getpid ()) !counter)
  in
  if Sys.file_exists dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
  dir

let config ?(wal = false) dir =
  {
    Live_index.dir = Some dir;
    memtable_capacity = 4;
    merge_threshold = 2;
    background_merge = false;
    wal;
    fsync_policy = Wal.Per_batch;
  }

let hits live = Live_index.search ~k:max_int live scoring query

let test_roundtrip () =
  let dir = fresh_dir () in
  let live = Live_index.open_dir ~config:(config dir) dir in
  for i = 0 to 9 do
    ignore (Live_index.add live [| "aa"; Printf.sprintf "w%d" i; "bb" |])
  done;
  (match Live_index.delete live 3 with
  | Ok () -> ()
  | Error `Not_found -> Alcotest.fail "delete failed");
  ignore (Live_index.flush live);
  Live_index.quiesce live;
  let want = hits live in
  let want_stats = Live_index.stats live in
  Live_index.close live;
  let reopened = Live_index.open_dir ~config:(config dir) dir in
  Alcotest.(check bool) "identical hits after recovery" true
    (hits reopened = want);
  let got = Live_index.stats reopened in
  Alcotest.(check int) "generation recovered" want_stats.Live_index.generation
    got.Live_index.generation;
  Alcotest.(check int) "docs recovered" want_stats.Live_index.docs
    got.Live_index.docs;
  Alcotest.(check int) "total_docs recovered" want_stats.Live_index.total_docs
    got.Live_index.total_docs;
  (* The recovered index keeps working: writes resume where they left
     off. *)
  let id = Live_index.add reopened [| "aa"; "bb"; "fresh" |] in
  Alcotest.(check int) "ids continue densely"
    want_stats.Live_index.total_docs id;
  Alcotest.(check bool) "new doc searchable" true
    (List.exists
       (fun h -> h.Pj_engine.Searcher.doc_id = id)
       (hits reopened));
  Live_index.close reopened

let test_flush_is_the_durability_barrier () =
  let dir = fresh_dir () in
  let live = Live_index.open_dir ~config:(config dir) dir in
  ignore (Live_index.add live [| "aa"; "bb"; "kept" |]);
  ignore (Live_index.flush live);
  ignore (Live_index.add live [| "aa"; "bb"; "lost" |]);
  (* No flush: the second document exists only in the memtable. *)
  Live_index.close live;
  let reopened = Live_index.open_dir ~config:(config dir) dir in
  Alcotest.(check int) "memtable doc lost by design" 1
    (Live_index.stats reopened).Live_index.total_docs;
  Alcotest.(check (list int))
    "flushed doc survived" [ 0 ]
    (List.map (fun h -> h.Pj_engine.Searcher.doc_id) (hits reopened));
  Live_index.close reopened

let test_deletes_durable_via_manifest_only_flush () =
  let dir = fresh_dir () in
  let live = Live_index.open_dir ~config:(config dir) dir in
  ignore (Live_index.add live [| "aa"; "bb" |]);
  ignore (Live_index.add live [| "aa"; "bb" |]);
  ignore (Live_index.flush live);
  (match Live_index.delete live 0 with
  | Ok () -> ()
  | Error `Not_found -> Alcotest.fail "delete failed");
  (* The memtable is empty, so this flush writes no segment — only a
     manifest carrying the tombstone. *)
  ignore (Live_index.flush live);
  Live_index.close live;
  let reopened = Live_index.open_dir ~config:(config dir) dir in
  Alcotest.(check (list int))
    "tombstone survived recovery" [ 1 ]
    (List.map (fun h -> h.Pj_engine.Searcher.doc_id) (hits reopened));
  Live_index.close reopened

(* A directory written before live segments became PJX4 files — a
   manifest v1 naming PJSG segments, plus a WAL — is refused with one
   [Failure] naming the manifest and its format, and nothing in it is
   touched: no orphan cleanup, no WAL replay or rewrite. The fixture
   was written by proxjoin at commit 629c705 (memtable 4, WAL on: six
   adds, delete 1, flush, one more add, then exit without close). *)
let fixture_dir = Filename.concat "fixtures" "parent_live_dir"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let dir_contents dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f -> (f, read_file (Filename.concat dir f)))

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_parent_dir_refused () =
  let dir = fresh_dir () in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  Array.iter
    (fun f ->
      write_file (Filename.concat dir f)
        (read_file (Filename.concat fixture_dir f)))
    (Sys.readdir fixture_dir);
  (* Crash droppings [cleanup_orphans] would delete if it ran. *)
  write_file (Filename.concat dir "seg-000099.seg") "orphan";
  write_file (Filename.concat dir "seg-000098.seg.tmp") "stale";
  let before = dir_contents dir in
  List.iter
    (fun wal ->
      match Live_index.open_dir ~config:(config ~wal dir) dir with
      | live ->
          Live_index.close live;
          Alcotest.fail "a manifest v1 directory was opened"
      | exception Failure msg ->
          let manifest = Filename.concat dir Manifest.filename in
          if not (contains msg manifest && contains msg "manifest v1") then
            Alcotest.failf "error %S does not name %s and its format" msg
              manifest;
          Alcotest.(check (list (pair string string)))
            (Printf.sprintf "directory byte-identical (wal=%b)" wal)
            before (dir_contents dir))
    [ true; false ]

(* The manifest entry is the only record of which of a segment's empty
   documents are dead, so a dead id outside the segment or out of order
   is a corrupt manifest. *)
let test_manifest_dead_ids_checked () =
  let dir = fresh_dir () in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let manifest dead =
    {
      Manifest.generation = 1;
      vocab = [ "aa" ];
      segments =
        [
          { Manifest.file = "seg-000000.seg"; base = 0; len = 4; dead = [] };
          { Manifest.file = "seg-000001.seg"; base = 4; len = 4; dead };
        ];
      tombstones = [];
    }
  in
  Manifest.write ~dir (manifest [ 5; 7 ]);
  (match Manifest.read ~dir with
  | Some m ->
      Alcotest.(check (list int)) "dead ids round trip" [ 5; 7 ]
        (List.nth m.Manifest.segments 1).Manifest.dead
  | None -> Alcotest.fail "manifest not found");
  List.iter
    (fun (dead, why) ->
      Manifest.write ~dir (manifest dead);
      match Manifest.read ~dir with
      | _ -> Alcotest.failf "manifest with %s accepted" why
      | exception Failure _ -> ())
    [
      ([ 3 ], "a dead id before its segment");
      ([ 8 ], "a dead id past its segment");
      ([ 6; 5 ], "descending dead ids");
      ([ 5; 5 ], "a repeated dead id");
    ]

(* A CRC-valid manifest whose count or string length is a 9-byte
   varint that does not fit a non-negative int (read as -1 before the
   overflow check) is rejected for that reason — not for whatever
   [List.init] or [String.sub] made of a negative count. *)
let test_manifest_overflowing_counts_rejected () =
  let dir = fresh_dir () in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let overflow = String.make 8 '\xff' ^ "\x7f" in
  let varints ns =
    let buf = Buffer.create 16 in
    List.iter (Pj_util.Bytecodec.write_varint buf) ns;
    Buffer.contents buf
  in
  let write_manifest payload =
    let buf = Buffer.create 64 in
    Buffer.add_string buf "PJMF";
    Pj_util.Bytecodec.write_varint buf 2;
    let payload_start = Buffer.length buf in
    Buffer.add_string buf payload;
    let contents = Buffer.contents buf in
    let footer = Bytes.create 4 in
    Bytes.set_int32_le footer 0
      (Pj_util.Bytecodec.crc32 ~pos:payload_start
         ~len:(String.length contents - payload_start)
         contents);
    Buffer.add_bytes buf footer;
    Pj_util.Bytecodec.write_file_atomic
      (Filename.concat dir Manifest.filename)
      buf
  in
  (* generation, vocab count, segment count, tombstone count *)
  write_manifest (varints [ 1; 0; 0; 0 ]);
  (match Manifest.read ~dir with
  | Some m -> Alcotest.(check int) "well-formed control" 1 m.Manifest.generation
  | None -> Alcotest.fail "manifest not found");
  List.iter
    (fun (payload, what) ->
      write_manifest payload;
      match Manifest.read ~dir with
      | _ -> Alcotest.failf "manifest with %s accepted" what
      | exception Failure msg ->
          if not (contains msg "varint overflow") then
            Alcotest.failf "%s: rejected as %S" what msg)
    [
      (varints [ 1 ] ^ overflow, "an overflowing vocab count");
      (varints [ 1; 1 ] ^ overflow ^ "aa", "an overflowing word length");
      (varints [ 1; 0 ] ^ overflow, "an overflowing segment count");
      ( varints [ 1; 0; 1 ] ^ overflow ^ "seg-000000.seg",
        "an overflowing file name length" );
      (varints [ 1; 0; 0 ] ^ overflow, "an overflowing tombstone count");
    ]

let test_orphan_cleanup () =
  let dir = fresh_dir () in
  let live = Live_index.open_dir ~config:(config dir) dir in
  ignore (Live_index.add live [| "aa"; "bb" |]);
  ignore (Live_index.flush live);
  let want = hits live in
  Live_index.close live;
  (* Droppings of a crashed flush/merge: a temp file and a segment the
     manifest never adopted. *)
  let orphan_tmp = Filename.concat dir "seg-000099.seg.tmp" in
  let orphan_seg = Filename.concat dir (Printf.sprintf "seg-%06d.seg" 98) in
  List.iter
    (fun p ->
      let oc = open_out p in
      output_string oc "junk";
      close_out oc)
    [ orphan_tmp; orphan_seg ];
  let reopened = Live_index.open_dir ~config:(config dir) dir in
  Alcotest.(check bool) "recovery unaffected by orphans" true
    (hits reopened = want);
  Alcotest.(check bool) "orphan tmp removed" false (Sys.file_exists orphan_tmp);
  Alcotest.(check bool) "orphan segment removed" false
    (Sys.file_exists orphan_seg);
  Live_index.close reopened

(* --- write-ahead log ---------------------------------------------------- *)

(* "Crash" = abandon the handle without close/flush: nothing buffered
   in the process survives except what the WAL (fsynced per batch)
   already holds — exactly the kill -9 shape. *)

(* The distinctive (non-filler) word of a recovered document. *)
let doc_word live id =
  let corpus = Live_index.corpus live in
  let vocab = Pj_index.Corpus.vocab corpus in
  let d = Pj_index.Corpus.document corpus id in
  let words =
    Array.map (Pj_text.Vocab.word vocab) d.Pj_text.Document.tokens
  in
  match Array.find_opt (fun w -> w <> "aa" && w <> "bb") words with
  | Some w -> w
  | None -> Alcotest.failf "doc %d has no distinctive word" id

let add_docs live ids =
  List.iter
    (fun i ->
      ignore (Live_index.add live [| "aa"; Printf.sprintf "w%d" i; "bb" |]))
    ids

let doc_ids_of hits =
  List.sort compare (List.map (fun h -> h.Pj_engine.Searcher.doc_id) hits)

(* Recovery is not a terminal state: a reopened index seals new
   segments, compacts them into the recovered ones, and a second
   restart serves all of it identically. *)
let test_recovered_index_recovers_again () =
  let dir = fresh_dir () in
  let live = Live_index.open_dir ~config:(config dir) dir in
  add_docs live (List.init 10 Fun.id);
  (match Live_index.delete live 3 with
  | Ok () -> ()
  | Error `Not_found -> Alcotest.fail "delete failed");
  ignore (Live_index.flush live);
  Live_index.quiesce live;
  Live_index.close live;
  let reopened = Live_index.open_dir ~config:(config dir) dir in
  add_docs reopened (List.init 6 (fun i -> 10 + i));
  (match Live_index.delete reopened 12 with
  | Ok () -> ()
  | Error `Not_found -> Alcotest.fail "delete failed");
  ignore (Live_index.flush reopened);
  Live_index.quiesce reopened;
  let want = hits reopened in
  let want_stats = Live_index.stats reopened in
  Alcotest.(check bool) "new segments merged into recovered ones" true
    (want_stats.Live_index.merges > 0);
  Alcotest.(check int) "merge policy satisfied" 2
    want_stats.Live_index.segments;
  Live_index.close reopened;
  let again = Live_index.open_dir ~config:(config dir) dir in
  Alcotest.(check bool) "identical hits after the second recovery" true
    (hits again = want);
  Alcotest.(check (list int)) "every surviving doc served"
    (List.filter (fun i -> i <> 3 && i <> 12) (List.init 16 Fun.id))
    (doc_ids_of (hits again));
  Alcotest.(check string) "recovered doc keeps its words" "w15"
    (doc_word again 15);
  Live_index.close again

(* A sealed segment file stores its documents at local ids [0, len);
   only its manifest entry places it at its base. The second file of
   a directory still starts at 0, and a restart serves its documents
   at their global ids. *)
let test_segment_files_hold_local_ids () =
  let dir = fresh_dir () in
  let live = Live_index.open_dir ~config:(config dir) dir in
  (* Capacity 4: the fifth add seals [0, 4), the flush seals [4, 6). *)
  add_docs live (List.init 6 Fun.id);
  ignore (Live_index.flush live);
  Live_index.close live;
  let entries =
    match Manifest.read ~dir with
    | Some m -> m.Manifest.segments
    | None -> Alcotest.fail "no manifest"
  in
  Alcotest.(check (list (pair int int))) "segments at their bases"
    [ (0, 4); (4, 2) ]
    (List.map (fun e -> (e.Manifest.base, e.Manifest.len)) entries);
  List.iter
    (fun (e : Manifest.entry) ->
      let mapped =
        Pj_ondisk.Mapped_index.open_file (Filename.concat dir e.Manifest.file)
      in
      Pj_ondisk.Mapped_index.check mapped;
      let index = Pj_ondisk.Mapped_index.index mapped in
      Alcotest.(check (array int))
        (Printf.sprintf "%s postings are local" e.Manifest.file)
        (Array.init e.Manifest.len Fun.id)
        (Pj_index.Posting_list.doc_ids
           (Pj_index.Inverted_index.postings_of_word index "aa")))
    entries;
  let reopened = Live_index.open_dir ~config:(config dir) dir in
  Alcotest.(check (list int)) "served at global ids" (List.init 6 Fun.id)
    (doc_ids_of (hits reopened));
  List.iter
    (fun i ->
      Alcotest.(check string) "word at its global id" (Printf.sprintf "w%d" i)
        (doc_word reopened i))
    (List.init 6 Fun.id);
  Live_index.close reopened

(* Recovery serves a sealed segment one way, with no fallback: a
   segment file that no longer matches its manifest entry — truncated,
   or swapped for another segment's bytes — fails [open_dir] with one
   [Failure] naming the problem, and leaves every file in place. *)
let test_damaged_segment_refused () =
  let damage =
    [
      ( "truncated",
        fun ~first ~second:_ ->
          let s = read_file first in
          write_file first (String.sub s 0 (String.length s / 2)) );
      ( "swapped for a shorter segment",
        fun ~first ~second -> write_file first (read_file second) );
    ]
  in
  List.iter
    (fun (what, spoil) ->
      let dir = fresh_dir () in
      let live = Live_index.open_dir ~config:(config dir) dir in
      add_docs live (List.init 6 Fun.id);
      ignore (Live_index.flush live);
      Live_index.close live;
      let files =
        match Manifest.read ~dir with
        | Some m ->
            List.map
              (fun e -> Filename.concat dir e.Manifest.file)
              m.Manifest.segments
        | None -> Alcotest.fail "no manifest"
      in
      (match files with
      | [ first; second ] -> spoil ~first ~second
      | _ -> Alcotest.fail "expected two segments");
      let before = dir_contents dir in
      (match Live_index.open_dir ~config:(config dir) dir with
      | reopened ->
          Live_index.close reopened;
          Alcotest.failf "a %s segment was served" what
      | exception Failure _ -> ()
      | exception e ->
          Alcotest.failf "%s segment: %s, not a Failure" what
            (Printexc.to_string e));
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "directory untouched (%s)" what)
        before (dir_contents dir))
    damage

(* Segments this build wrote, each with its version byte (byte 4,
   outside the CRC) set back to 4, the layout of an older build whose
   postings carried an impact byte. [open_dir] refuses the directory
   with one [Failure] naming a segment and its version, and nothing in
   it is touched: no orphan cleanup, no WAL replay or rewrite. *)
let test_old_version_segments_refused () =
  let dir = fresh_dir () in
  let live = Live_index.open_dir ~config:(config ~wal:true dir) dir in
  add_docs live (List.init 6 Fun.id);
  ignore (Live_index.flush live);
  (* Acknowledged, not flushed: these two live only in the WAL. *)
  add_docs live [ 6; 7 ];
  Live_index.close live;
  let segments =
    match Manifest.read ~dir with
    | Some m ->
        List.map
          (fun e -> Filename.concat dir e.Manifest.file)
          m.Manifest.segments
    | None -> Alcotest.fail "no manifest"
  in
  Alcotest.(check int) "two segments" 2 (List.length segments);
  List.iter
    (fun path ->
      let b = Bytes.of_string (read_file path) in
      Bytes.set b 4 '\x04';
      write_file path (Bytes.to_string b))
    segments;
  (* Crash droppings [cleanup_orphans] would delete if it ran. *)
  write_file (Filename.concat dir "seg-000099.seg") "orphan";
  write_file (Filename.concat dir "seg-000098.seg.tmp") "stale";
  let before = dir_contents dir in
  List.iter
    (fun wal ->
      match Live_index.open_dir ~config:(config ~wal dir) dir with
      | live ->
          Live_index.close live;
          Alcotest.fail "a directory of version-4 segments was opened"
      | exception Failure msg ->
          if
            not
              (List.exists (contains msg) segments
              && contains msg "version 4")
          then
            Alcotest.failf "error %S names no segment and its version" msg;
          Alcotest.(check (list (pair string string)))
            (Printf.sprintf "directory byte-identical (wal=%b)" wal)
            before (dir_contents dir))
    [ true; false ]

let test_wal_recovers_unflushed () =
  let dir = fresh_dir () in
  let live = Live_index.open_dir ~config:(config ~wal:true dir) dir in
  (* Capacity is 4: three adds stay memtable-only, no segment, no
     manifest — without the WAL every one of them would be lost. *)
  for i = 0 to 2 do
    ignore (Live_index.add live [| "aa"; Printf.sprintf "w%d" i; "bb" |])
  done;
  (match Live_index.delete live 1 with
  | Ok () -> ()
  | Error `Not_found -> Alcotest.fail "delete failed");
  let want = hits live in
  let want_gen = Live_index.generation live in
  Alcotest.(check int) "nothing beyond the durable horizon" 0
    (Live_index.stats live).Live_index.durable_lag;
  (* crash *)
  let reopened = Live_index.open_dir ~config:(config ~wal:true dir) dir in
  Alcotest.(check bool) "acknowledged state recovered byte-identically" true
    (hits reopened = want);
  Alcotest.(check int) "generation recovered" want_gen
    (Live_index.generation reopened);
  Alcotest.(check int) "all three docs recovered" 3
    (Live_index.stats reopened).Live_index.total_docs;
  (* The recovered index keeps working and ids stay dense. *)
  Alcotest.(check int) "ids continue densely" 3
    (Live_index.add reopened [| "aa"; "bb"; "fresh" |]);
  Live_index.close reopened

let test_wal_rotation_across_flushes () =
  let dir = fresh_dir () in
  let live = Live_index.open_dir ~config:(config ~wal:true dir) dir in
  (* 10 adds with capacity 4: two auto-flush rotations, two docs left
     in the memtable covered only by the log. *)
  for i = 0 to 9 do
    ignore (Live_index.add live [| "aa"; Printf.sprintf "w%d" i; "bb" |])
  done;
  (match Live_index.delete live 3 with
  | Ok () -> ()
  | Error `Not_found -> Alcotest.fail "delete failed");
  let want = hits live in
  let want_gen = Live_index.generation live in
  (* crash *)
  let reopened = Live_index.open_dir ~config:(config ~wal:true dir) dir in
  Alcotest.(check bool) "flushed + logged state recovered" true
    (hits reopened = want);
  Alcotest.(check int) "generation recovered" want_gen
    (Live_index.generation reopened);
  (* And the recovered state survives a second crash unchanged. *)
  let again = Live_index.open_dir ~config:(config ~wal:true dir) dir in
  Alcotest.(check bool) "idempotent re-recovery" true (hits again = want);
  Live_index.close again;
  Live_index.close reopened

let test_wal_torn_tail_discarded () =
  let dir = fresh_dir () in
  let live = Live_index.open_dir ~config:(config ~wal:true dir) dir in
  ignore (Live_index.add live [| "aa"; "bb"; "first" |]);
  ignore (Live_index.add live [| "aa"; "bb"; "second" |]);
  (* crash mid-append: a record's length prefix landed but its bytes
     did not. *)
  let path = Filename.concat dir Wal.filename in
  let oc =
    open_out_gen [ Open_append; Open_binary ] 0o644 path
  in
  output_string oc "\x40\x00\x00\x00torn";
  close_out oc;
  let reopened = Live_index.open_dir ~config:(config ~wal:true dir) dir in
  Alcotest.(check int) "intact prefix recovered" 2
    (Live_index.stats reopened).Live_index.total_docs;
  (* The torn bytes were truncated away: appends resume cleanly. *)
  ignore (Live_index.add reopened [| "aa"; "bb"; "third" |]);
  let want = hits reopened in
  let again = Live_index.open_dir ~config:(config ~wal:true dir) dir in
  Alcotest.(check bool) "recovery after truncation + append" true
    (hits again = want);
  Live_index.close again;
  Live_index.close reopened;
  Live_index.close live

let test_wal_corrupt_record_stops_replay () =
  let dir = fresh_dir () in
  let live = Live_index.open_dir ~config:(config ~wal:true dir) dir in
  ignore (Live_index.add live [| "aa"; "bb"; "first" |]);
  ignore (Live_index.add live [| "aa"; "bb"; "second" |]);
  (* Flip the last byte — inside the final record's CRC. *)
  let path = Filename.concat dir Wal.filename in
  let len = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  ignore (Unix.lseek fd (len - 1) Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read (Unix.openfile path [ Unix.O_RDONLY ] 0o644) b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xFF));
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  let reopened = Live_index.open_dir ~config:(config ~wal:true dir) dir in
  Alcotest.(check int) "corrupt record and tail discarded" 1
    (Live_index.stats reopened).Live_index.total_docs;
  Alcotest.(check string) "surviving doc intact" "first" (doc_word reopened 0);
  (* A CRC-valid add record whose token length is a 9-byte varint that
     overflows into the sign bit is corrupt too: replay stops before it
     instead of raising. *)
  let payload = "\x01\x07\x01" ^ String.make 8 '\xff' ^ "\x7faa" in
  let frame = Buffer.create 32 in
  let u32 v =
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 v;
    Buffer.add_bytes frame b
  in
  u32 (Int32.of_int (String.length payload));
  Buffer.add_string frame payload;
  u32 (Pj_util.Bytecodec.crc32 payload);
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  Buffer.output_buffer oc frame;
  close_out oc;
  let again = Live_index.open_dir ~config:(config ~wal:true dir) dir in
  Alcotest.(check int) "overflowing length stops replay" 1
    (Live_index.stats again).Live_index.total_docs;
  Live_index.close again;
  Live_index.close reopened;
  Live_index.close live

(* Crash at each WAL failpoint site: an operation that raised was
   never acknowledged, so after recovery it must be absent or fully
   present — never torn — while every acknowledged one survives. *)
let test_wal_crash_sites () =
  let expect_injected f =
    match f () with
    | _ -> Alcotest.fail "expected an injected fault"
    | exception Pj_util.Failpoint.Injected _ -> ()
  in
  (* live.wal.append: fails before anything mutates — the doc must be
     absent after recovery and the live process stays consistent. *)
  let dir = fresh_dir () in
  let live = Live_index.open_dir ~config:(config ~wal:true dir) dir in
  ignore (Live_index.add live [| "aa"; "bb"; "acked" |]);
  Fun.protect
    ~finally:(fun () -> Pj_util.Failpoint.clear ())
    (fun () ->
      Pj_util.Failpoint.arm "live.wal.append" Pj_util.Failpoint.Fail;
      expect_injected (fun () ->
          Live_index.add live [| "aa"; "bb"; "unacked" |]));
  let r = Live_index.open_dir ~config:(config ~wal:true dir) dir in
  Alcotest.(check int) "append-crash: only the acked doc" 1
    (Live_index.stats r).Live_index.total_docs;
  Alcotest.(check string) "append-crash: acked doc intact" "acked"
    (doc_word r 0);
  Live_index.close r;
  Live_index.close live;
  (* live.wal.fsync: the op applied in memory but its record never
     reached the file — after the crash it is absent; the earlier
     acked doc survives. *)
  let dir = fresh_dir () in
  let live = Live_index.open_dir ~config:(config ~wal:true dir) dir in
  ignore (Live_index.add live [| "aa"; "bb"; "acked" |]);
  Fun.protect
    ~finally:(fun () -> Pj_util.Failpoint.clear ())
    (fun () ->
      Pj_util.Failpoint.arm "live.wal.fsync" Pj_util.Failpoint.Fail;
      expect_injected (fun () ->
          Live_index.add live [| "aa"; "bb"; "unacked" |]));
  let r = Live_index.open_dir ~config:(config ~wal:true dir) dir in
  Alcotest.(check int) "fsync-crash: unacked doc absent" 1
    (Live_index.stats r).Live_index.total_docs;
  Alcotest.(check string) "fsync-crash: acked doc intact" "acked"
    (doc_word r 0);
  Live_index.close r;
  Live_index.close live;
  (* live.wal.rotate: fires inside flush after the manifest landed —
     every acked doc is durable via the manifest; the stale log
     replays as no-ops. *)
  let dir = fresh_dir () in
  let live = Live_index.open_dir ~config:(config ~wal:true dir) dir in
  ignore (Live_index.add live [| "aa"; "bb"; "one" |]);
  ignore (Live_index.add live [| "aa"; "bb"; "two" |]);
  let want = hits live in
  Fun.protect
    ~finally:(fun () -> Pj_util.Failpoint.clear ())
    (fun () ->
      Pj_util.Failpoint.arm "live.wal.rotate" Pj_util.Failpoint.Fail;
      expect_injected (fun () -> Live_index.flush live));
  let r = Live_index.open_dir ~config:(config ~wal:true dir) dir in
  Alcotest.(check bool) "rotate-crash: acked docs recovered" true
    (hits r = want);
  Alcotest.(check int) "rotate-crash: no duplicates from stale log" 2
    (Live_index.stats r).Live_index.total_docs;
  Live_index.close r;
  Live_index.close live

(* Opting out of the WAL retires the log: its records must not leak
   into an epoch that reuses their doc ids. *)
let test_wal_disabled_removes_log () =
  let dir = fresh_dir () in
  let live = Live_index.open_dir ~config:(config ~wal:true dir) dir in
  ignore (Live_index.add live [| "aa"; "bb"; "logged" |]);
  (* crash, then reopen with the WAL off: back to flush-barrier
     semantics, so the unflushed doc is gone — and so is the log. *)
  let plain = Live_index.open_dir ~config:(config dir) dir in
  Alcotest.(check int) "unflushed doc lost without wal" 0
    (Live_index.stats plain).Live_index.total_docs;
  Alcotest.(check bool) "log removed" false
    (Sys.file_exists (Filename.concat dir Wal.filename));
  ignore (Live_index.add plain [| "aa"; "bb"; "fresh" |]);
  ignore (Live_index.flush plain);
  Live_index.close plain;
  (* Re-enabling must not resurrect the old epoch's records. *)
  let again = Live_index.open_dir ~config:(config ~wal:true dir) dir in
  Alcotest.(check int) "old records not resurrected" 1
    (Live_index.stats again).Live_index.total_docs;
  Alcotest.(check string) "the new epoch's doc" "fresh" (doc_word again 0);
  Live_index.close again;
  Live_index.close live

(* Satellite: tmp droppings are cleaned even before the first flush
   ever writes a manifest. *)
let test_tmp_cleanup_without_manifest () =
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  let planted = Filename.concat dir "MANIFEST.tmp" in
  let oc = open_out planted in
  output_string oc "junk";
  close_out oc;
  let live = Live_index.open_dir ~config:(config dir) dir in
  Alcotest.(check bool) "tmp removed with no manifest present" false
    (Sys.file_exists planted);
  Live_index.close live

(* The chaos oracle: a randomized op stream with kill points injected
   at every durability-relevant site. After each simulated crash the
   reopened index must (a) contain every acknowledged add, intact;
   (b) hide every acknowledged delete; (c) contain nothing that was
   never attempted — and its hit list must be byte-identical to a
   from-scratch in-memory index over the recovered documents. *)
let test_wal_chaos_oracle () =
  let sites =
    [| "live.wal.append"; "live.wal.fsync"; "live.wal.rotate";
       "live.flush"; "live.manifest" |]
  in
  let rng = Random.State.make [| 0xC4A05 |] in
  let dir = fresh_dir () in
  let uniq = ref 0 in
  let fresh_word () =
    incr uniq;
    (* letters only, so tokenization concerns never intrude *)
    let b = Buffer.create 8 in
    Buffer.add_string b "u";
    let n = ref !uniq in
    while !n > 0 do
      Buffer.add_char b (Char.chr (Char.code 'a' + (!n mod 26)));
      n := !n / 26
    done;
    Buffer.contents b
  in
  (* Truth as of the last crash boundary, plus this epoch's fates. *)
  let attempted_adds = Hashtbl.create 64 in
  let acked_adds = ref [] in
  let acked_dels = ref [] in
  let attempted_dels = ref [] in
  for _epoch = 1 to 12 do
    Pj_util.Failpoint.clear ();
    let live = Live_index.open_dir ~config:(config ~wal:true dir) dir in
    let corpus = Live_index.corpus live in
    let n = Pj_index.Corpus.size corpus in
    let word_of id = doc_word live id in
    let present =
      List.map (fun h -> h.Pj_engine.Searcher.doc_id) (hits live)
    in
    let present_words = List.map word_of present in
    (* (a) acknowledged adds survive, unless acked-deleted (an
       attempted-but-failed delete may legitimately have landed). *)
    List.iter
      (fun w ->
        if List.mem w !acked_dels then ()
        else if List.mem w !attempted_dels then ()
        else
          Alcotest.(check bool)
            (Printf.sprintf "acked doc %s present after crash" w)
            true (List.mem w present_words))
      !acked_adds;
    (* (b) acknowledged deletes stay deleted. *)
    List.iter
      (fun w ->
        Alcotest.(check bool)
          (Printf.sprintf "acked delete of %s honored" w)
          false (List.mem w present_words))
      !acked_dels;
    (* (c) nothing torn or invented: every recovered doc was an
       attempted add with exactly these tokens. *)
    for id = 0 to n - 1 do
      let d = Pj_index.Corpus.document corpus id in
      let vocab = Pj_index.Corpus.vocab corpus in
      let words =
        Array.map (Pj_text.Vocab.word vocab) d.Pj_text.Document.tokens
      in
      Alcotest.(check bool)
        (Printf.sprintf "doc %d is an attempted add, untorn" id)
        true
        (Array.length words = 3
        && words.(0) = "aa" && words.(2) = "bb"
        && Hashtbl.mem attempted_adds words.(1))
    done;
    (* Byte-identical to a from-scratch index over the recovered
       state. *)
    let oracle = Live_index.create () in
    for id = 0 to n - 1 do
      let d = Pj_index.Corpus.document corpus id in
      let vocab = Pj_index.Corpus.vocab corpus in
      ignore
        (Live_index.add oracle
           (Array.map (Pj_text.Vocab.word vocab) d.Pj_text.Document.tokens))
    done;
    for id = 0 to n - 1 do
      if not (List.mem id present) then
        match Live_index.delete oracle id with
        | Ok () | Error `Not_found -> ()
    done;
    Alcotest.(check bool) "recovered hits = from-scratch hits" true
      (hits live = hits oracle);
    Live_index.close oracle;
    (* The recovered state is the new ground truth. *)
    acked_adds := present_words;
    acked_dels := [];
    attempted_dels := [];
    (* New epoch: random ops under randomly armed kill points. *)
    for _op = 1 to 8 do
      let armed =
        if Random.State.int rng 10 < 4 then begin
          let s = sites.(Random.State.int rng (Array.length sites)) in
          Pj_util.Failpoint.arm s Pj_util.Failpoint.Fail;
          Some s
        end
        else None
      in
      (match Random.State.int rng 10 with
      | 0 | 1 | 2 | 3 | 4 | 5 -> begin
          let w = fresh_word () in
          Hashtbl.replace attempted_adds w ();
          match Live_index.add live [| "aa"; w; "bb" |] with
          | _ -> acked_adds := w :: !acked_adds
          | exception _ -> ()
        end
      | 6 | 7 -> begin
          let ids =
            List.map (fun h -> h.Pj_engine.Searcher.doc_id) (hits live)
          in
          match ids with
          | [] -> ()
          | _ -> begin
              let id = List.nth ids (Random.State.int rng (List.length ids)) in
              let w = word_of id in
              attempted_dels := w :: !attempted_dels;
              match Live_index.delete live id with
              | Ok () -> acked_dels := w :: !acked_dels
              | Error `Not_found -> ()
              | exception _ -> ()
            end
        end
      | _ -> ( try ignore (Live_index.flush live) with _ -> ()));
      match armed with Some _ -> Pj_util.Failpoint.clear () | None -> ()
    done
    (* crash: abandon [live] without close or flush *)
  done;
  Pj_util.Failpoint.clear ()

let suite =
  [
    Alcotest.test_case "roundtrip is byte-identical" `Quick test_roundtrip;
    Alcotest.test_case "flush is the durability barrier" `Quick
      test_flush_is_the_durability_barrier;
    Alcotest.test_case "deletes persist via manifest-only flush" `Quick
      test_deletes_durable_via_manifest_only_flush;
    Alcotest.test_case "orphan files cleaned at open" `Quick
      test_orphan_cleanup;
    Alcotest.test_case "parent live dir refused untouched" `Quick
      test_parent_dir_refused;
    Alcotest.test_case "manifest dead ids checked" `Quick
      test_manifest_dead_ids_checked;
    Alcotest.test_case "manifest with overflowing counts rejected" `Quick
      test_manifest_overflowing_counts_rejected;
    Alcotest.test_case "recovered index recovers again" `Quick
      test_recovered_index_recovers_again;
    Alcotest.test_case "segment files hold local ids" `Quick
      test_segment_files_hold_local_ids;
    Alcotest.test_case "damaged segment refused untouched" `Quick
      test_damaged_segment_refused;
    Alcotest.test_case "version-4 segments refused untouched" `Quick
      test_old_version_segments_refused;
    Alcotest.test_case "wal recovers unflushed writes" `Quick
      test_wal_recovers_unflushed;
    Alcotest.test_case "wal rotates across flushes" `Quick
      test_wal_rotation_across_flushes;
    Alcotest.test_case "wal torn tail discarded" `Quick
      test_wal_torn_tail_discarded;
    Alcotest.test_case "wal corrupt record stops replay" `Quick
      test_wal_corrupt_record_stops_replay;
    Alcotest.test_case "wal crash at every failpoint site" `Quick
      test_wal_crash_sites;
    Alcotest.test_case "disabling the wal retires the log" `Quick
      test_wal_disabled_removes_log;
    Alcotest.test_case "tmp cleanup without a manifest" `Quick
      test_tmp_cleanup_without_manifest;
    Alcotest.test_case "wal chaos oracle" `Quick test_wal_chaos_oracle;
  ]
