open Pj_index
module Legacy_storage = Pj_reference.Legacy_storage

let temp_path () = Filename.temp_file "proxjoin_test" ".pjix"

let test_varint_roundtrip () =
  List.iter
    (fun n ->
      let buf = Buffer.create 16 in
      Storage.write_varint buf n;
      let pos = ref 0 in
      Alcotest.(check int)
        (Printf.sprintf "varint %d" n)
        n
        (Storage.read_varint (Buffer.contents buf) ~pos);
      Alcotest.(check int) "fully consumed" (Buffer.length buf) !pos)
    [ 0; 1; 127; 128; 300; 16_383; 16_384; 1_000_000; max_int / 4 ]

let test_varint_random_roundtrip () =
  let rng = Pj_util.Prng.create 77 in
  let buf = Buffer.create 4096 in
  let values = Array.init 500 (fun _ -> Pj_util.Prng.int rng 10_000_000) in
  Array.iter (Storage.write_varint buf) values;
  let s = Buffer.contents buf in
  let pos = ref 0 in
  Array.iter
    (fun expected ->
      Alcotest.(check int) "sequence value" expected (Storage.read_varint s ~pos))
    values;
  Alcotest.(check int) "consumed" (String.length s) !pos

let test_varint_truncation () =
  Alcotest.check_raises "truncated" (Failure "Storage: truncated varint")
    (fun () -> ignore (Storage.read_varint "\x80" ~pos:(ref 0)))

let sample_corpus () =
  let c = Corpus.create () in
  ignore (Corpus.add_text c "lenovo partners with nba lenovo wins");
  ignore (Corpus.add_text c "dell and lenovo compete");
  ignore (Corpus.add_text c "");
  ignore (Corpus.add_text c "the olympic games in beijing 2008");
  c

let corpora_equal a b =
  Corpus.size a = Corpus.size b
  && begin
       let ok = ref true in
       for i = 0 to Corpus.size a - 1 do
         let da = Corpus.document a i and db = Corpus.document b i in
         if
           Pj_text.Document.text (Corpus.vocab a) da
           <> Pj_text.Document.text (Corpus.vocab b) db
         then ok := false
       done;
       !ok
     end

let test_corpus_roundtrip () =
  let c = sample_corpus () in
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Legacy_storage.save_corpus c path;
      let c' = Storage.load_corpus path in
      Alcotest.(check bool) "documents identical" true (corpora_equal c c'))

let test_index_roundtrip () =
  let c = sample_corpus () in
  let idx = Inverted_index.build c in
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Legacy_storage.save idx path;
      let idx' = Inverted_index.build (Storage.load_corpus path) in
      (* Same posting statistics for every word of the original vocab. *)
      let vocab = Corpus.vocab c in
      for tok = 0 to Pj_text.Vocab.size vocab - 1 do
        let w = Pj_text.Vocab.word vocab tok in
        Alcotest.(check int)
          ("df of " ^ w)
          (Posting_list.document_frequency (Inverted_index.postings_of_word idx w))
          (Posting_list.document_frequency (Inverted_index.postings_of_word idx' w))
      done)

let test_empty_corpus_roundtrip () =
  let c = Corpus.create () in
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Legacy_storage.save_corpus c path;
      Alcotest.(check int) "empty" 0 (Corpus.size (Storage.load_corpus path)))

let test_bad_magic () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc "NOPE whatever";
      close_out oc;
      Alcotest.check_raises "rejected"
        (Failure "Storage: not a proxjoin corpus file") (fun () ->
          ignore (Storage.load_corpus path)))

let check_load_fails ~msg_contains path =
  match Storage.load_corpus path with
  | _ -> Alcotest.failf "load succeeded; wanted failure about %s" msg_contains
  | exception Failure msg ->
      let contains s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      if not (contains msg msg_contains) then
        Alcotest.failf "error %S does not mention %S" msg msg_contains

let test_trailing_bytes () =
  let c = sample_corpus () in
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Legacy_storage.save_corpus c path;
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc "junk";
      close_out oc;
      (* Appended junk shifts the CRC footer, so v2 detects it as
         corruption. *)
      check_load_fails ~msg_contains:"CRC mismatch" path)

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_bytes path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc s)

let test_bit_flip_detected () =
  let c = sample_corpus () in
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Legacy_storage.save_corpus c path;
      let s = read_bytes path in
      (* Flip one payload bit in the middle of the file. *)
      let b = Bytes.of_string s in
      let i = String.length s / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x10));
      write_bytes path (Bytes.to_string b);
      check_load_fails ~msg_contains:"CRC mismatch" path)

let test_truncation_detected () =
  let c = sample_corpus () in
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Legacy_storage.save_corpus c path;
      let s = read_bytes path in
      write_bytes path (String.sub s 0 (String.length s - 3));
      check_load_fails ~msg_contains:"CRC mismatch" path;
      (* Truncating into the header itself is caught even earlier. *)
      write_bytes path (String.sub s 0 6);
      check_load_fails ~msg_contains:"truncated" path)

(* Byte length of the trailing shard section [Legacy_storage.save_corpus]
   writes for an unsharded corpus: varint 1 followed by varint n_docs. *)
let shard_section_bytes c =
  let buf = Buffer.create 8 in
  Storage.write_varint buf 1;
  Storage.write_varint buf (Corpus.size c);
  Buffer.length buf

let test_old_versions_still_load () =
  let c = sample_corpus () in
  List.iter
    (fun v ->
      let path = temp_path () in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Legacy_storage.save_corpus ~version:v c path;
          let c' = Storage.load_corpus path in
          Alcotest.(check bool)
            (Printf.sprintf "v%d roundtrip" v)
            true (corpora_equal c c');
          (* Pre-layout files open as a single shard over everything. *)
          let sharded = Storage.load_sharded path in
          Alcotest.(check int)
            (Printf.sprintf "v%d loads as one shard" v)
            1
            (Sharded_index.n_shards sharded);
          Alcotest.(check int)
            (Printf.sprintf "v%d shard covers the corpus" v)
            (Corpus.size c)
            (Sharded_index.counts sharded).(0)))
    [ 1; 2 ]

let test_sharded_roundtrip () =
  let c = sample_corpus () in
  let sharded = Sharded_index.build ~shards:3 c in
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Legacy_storage.save_sharded sharded path;
      let sharded' = Storage.load_sharded path in
      Alcotest.(check (array int)) "shard layout survives"
        (Sharded_index.counts sharded)
        (Sharded_index.counts sharded');
      Alcotest.(check bool) "documents identical" true
        (corpora_equal c (Sharded_index.corpus sharded'));
      (* An unsharded save reopens as exactly one shard. *)
      Legacy_storage.save_corpus c path;
      Alcotest.(check (array int)) "plain corpus is one shard"
        [| Corpus.size c |]
        (Sharded_index.counts (Storage.load_sharded path)))

let test_bad_shard_layout_rejected () =
  let c = sample_corpus () in
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* Regenerate the file with a shard section claiming more
         documents than the corpus holds; the CRC is valid, so only
         the layout validation can catch it. *)
      Legacy_storage.save_corpus c path;
      let s = read_bytes path in
      let body_end = String.length s - 4 - shard_section_bytes c in
      let buf = Buffer.create (String.length s) in
      Buffer.add_string buf (String.sub s 0 body_end);
      Storage.write_varint buf 2;
      Storage.write_varint buf (Corpus.size c);
      Storage.write_varint buf (Corpus.size c);
      let contents = Buffer.contents buf in
      let crc = Storage.crc32 ~pos:5 contents in
      let footer = Bytes.create 4 in
      Bytes.set_int32_le footer 0 crc;
      Buffer.add_bytes buf footer;
      write_bytes path (Buffer.contents buf);
      check_load_fails ~msg_contains:"shard layout" path)

(* A panic failpoint anywhere inside [save_corpus] must model a crash:
   whatever was at [path] before stays loadable, byte for byte. *)
let test_crashed_save_leaves_old_file () =
  let c1 = sample_corpus () in
  let c2 = Corpus.create () in
  ignore (Corpus.add_text c2 "a completely different corpus");
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () ->
      Pj_util.Failpoint.clear ();
      Sys.remove path;
      if Sys.file_exists (path ^ ".tmp") then Sys.remove (path ^ ".tmp"))
    (fun () ->
      Legacy_storage.save_corpus c1 path;
      let before = read_bytes path in
      List.iter
        (fun site ->
          Pj_util.Failpoint.clear ();
          Pj_util.Failpoint.arm site Pj_util.Failpoint.Panic;
          (match Legacy_storage.save_corpus c2 path with
          | () -> Alcotest.failf "save survived %s panic" site
          | exception Pj_util.Failpoint.Panicked _ -> ());
          Alcotest.(check string)
            (site ^ ": target file untouched")
            before (read_bytes path);
          Alcotest.(check bool)
            (site ^ ": old corpus still loads")
            true
            (corpora_equal c1 (Storage.load_corpus path)))
        [ "storage.save.write"; "storage.save.rename" ];
      (* After the "crash", a clean save goes through and wins. *)
      Pj_util.Failpoint.clear ();
      Legacy_storage.save_corpus c2 path;
      Alcotest.(check bool) "new corpus after recovery" true
        (corpora_equal c2 (Storage.load_corpus path)))

(* A half-written temp file must never shadow the real index, and a
   partial file at the final path is rejected by the CRC (exercised by
   test_truncation_detected) with a [Failure], never a raw decoder
   exception. *)
let test_garbage_never_escapes_as_raw_exception () =
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (* A header that lies about its sizes: valid magic + version 1
         (no CRC to catch it), then a varint promising a vocabulary so
         large the string reader runs off the end. *)
      let buf = Buffer.create 32 in
      Buffer.add_string buf "PJIX\001";
      Storage.write_varint buf 3;
      Storage.write_varint buf 1_000_000;
      write_bytes path (Buffer.contents buf);
      match Storage.load_corpus path with
      | _ -> Alcotest.fail "bogus file loaded"
      | exception Failure msg ->
          Alcotest.(check bool) "clear Storage error" true
            (String.length msg >= 8 && String.sub msg 0 8 = "Storage:")
      | exception e ->
          Alcotest.failf "raw exception escaped: %s" (Printexc.to_string e))

let test_load_failpoint_injects () =
  let c = sample_corpus () in
  let path = temp_path () in
  Fun.protect
    ~finally:(fun () ->
      Pj_util.Failpoint.clear ();
      Sys.remove path)
    (fun () ->
      Legacy_storage.save_corpus c path;
      Pj_util.Failpoint.arm "storage.load" Pj_util.Failpoint.Fail;
      (match Storage.load_corpus path with
      | _ -> Alcotest.fail "failpoint did not fire"
      | exception Pj_util.Failpoint.Injected "storage.load" -> ());
      Pj_util.Failpoint.clear ();
      Alcotest.(check bool) "loads once cleared" true
        (corpora_equal c (Storage.load_corpus path)))

(* Truncate-at-every-offset fuzz: whatever the cut point and whatever
   the format version, [load] fails with a descriptive [Failure
   "Storage: ..."] — never a raw decoder exception, never a successful
   load of a partial file. (v1 has no CRC, so its parser must catch
   every truncation structurally.) *)
let test_truncation_fuzz_all_versions () =
  let c = sample_corpus () in
  List.iter
    (fun v ->
      let path = temp_path () in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Legacy_storage.save_corpus ~version:v c path;
          let s = read_bytes path in
          for cut = 0 to String.length s - 1 do
            write_bytes path (String.sub s 0 cut);
            match Storage.load_corpus path with
            | _ -> Alcotest.failf "v%d: truncation at %d loaded" v cut
            | exception Failure msg ->
                if not (String.length msg >= 8 && String.sub msg 0 8 = "Storage:")
                then Alcotest.failf "v%d cut %d: unexpected message %S" v cut msg
            | exception e ->
                Alcotest.failf "v%d cut %d: raw exception escaped: %s" v cut
                  (Printexc.to_string e)
          done))
    [ 1; 2; 3 ]

let test_crc32_known_value () =
  (* The standard check value: CRC-32 of "123456789". *)
  Alcotest.(check int32) "check value" 0xCBF43926l (Storage.crc32 "123456789");
  Alcotest.(check int32) "empty" 0l (Storage.crc32 "");
  Alcotest.(check int32) "substring"
    (Storage.crc32 "456")
    (Storage.crc32 ~pos:3 ~len:3 "123456789")

let suite =
  [
    ("storage: varint roundtrip", `Quick, test_varint_roundtrip);
    ("storage: varint sequence", `Quick, test_varint_random_roundtrip);
    ("storage: varint truncation", `Quick, test_varint_truncation);
    ("storage: corpus roundtrip", `Quick, test_corpus_roundtrip);
    ("storage: index roundtrip", `Quick, test_index_roundtrip);
    ("storage: empty corpus", `Quick, test_empty_corpus_roundtrip);
    ("storage: bad magic", `Quick, test_bad_magic);
    ("storage: trailing bytes", `Quick, test_trailing_bytes);
    ("storage: bit flip detected", `Quick, test_bit_flip_detected);
    ("storage: truncation detected", `Quick, test_truncation_detected);
    ("storage: v1/v2 still load", `Quick, test_old_versions_still_load);
    ("storage: truncation fuzz v1/v2/v3", `Quick, test_truncation_fuzz_all_versions);
    ("storage: sharded roundtrip", `Quick, test_sharded_roundtrip);
    ("storage: bad shard layout rejected", `Quick, test_bad_shard_layout_rejected);
    ("storage: crc32 check value", `Quick, test_crc32_known_value);
    ("storage: crashed save leaves old file", `Quick, test_crashed_save_leaves_old_file);
    ("storage: no raw exception on garbage", `Quick, test_garbage_never_escapes_as_raw_exception);
    ("storage: load failpoint", `Quick, test_load_failpoint_injects);
  ]
