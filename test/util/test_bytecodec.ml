open Pj_util

let test_varint_roundtrip () =
  List.iter
    (fun n ->
      let buf = Buffer.create 16 in
      Bytecodec.write_varint buf n;
      let pos = ref 0 in
      Alcotest.(check int)
        (Printf.sprintf "varint %d" n)
        n
        (Bytecodec.read_varint (Buffer.contents buf) ~pos);
      Alcotest.(check int) "fully consumed" (Buffer.length buf) !pos)
    [ 0; 1; 127; 128; 300; 16_383; 16_384; 1_000_000; max_int / 4; max_int ]

let test_varint_random_roundtrip () =
  let rng = Prng.create 77 in
  let buf = Buffer.create 4096 in
  let values = Array.init 500 (fun _ -> Prng.int rng 10_000_000) in
  Array.iter (Bytecodec.write_varint buf) values;
  let s = Buffer.contents buf in
  let pos = ref 0 in
  Array.iter
    (fun expected ->
      Alcotest.(check int) "sequence value" expected
        (Bytecodec.read_varint s ~pos))
    values;
  Alcotest.(check int) "consumed" (String.length s) !pos

let test_varint_truncation () =
  Alcotest.check_raises "truncated" (Failure "Bytecodec: truncated varint")
    (fun () -> ignore (Bytecodec.read_varint "\x80" ~pos:(ref 0)))

(* Eight continuation bytes put the 9th at bit 56, where only 6 value
   bits fit a non-negative 63-bit int. *)
let nine_bytes last = String.make 8 '\xff' ^ String.make 1 last

let test_varint_overflow () =
  Alcotest.(check int) "largest 9-byte varint" max_int
    (Bytecodec.read_varint (nine_bytes '\x3f') ~pos:(ref 0));
  List.iter
    (fun last ->
      Alcotest.check_raises
        (Printf.sprintf "9th byte %02x" (Char.code last))
        (Failure "Bytecodec: varint overflow")
        (fun () -> ignore (Bytecodec.read_varint (nine_bytes last) ~pos:(ref 0))))
    [ '\x40'; '\x7f'; '\x80'; '\xff' ];
  Alcotest.check_raises "10 bytes" (Failure "Bytecodec: varint overflow")
    (fun () ->
      ignore (Bytecodec.read_varint (nine_bytes '\x81' ^ "\x00") ~pos:(ref 0)))

let test_string_lengths () =
  let buf = Buffer.create 16 in
  Bytecodec.write_string buf "abc";
  Bytecodec.write_string buf "";
  let s = Buffer.contents buf in
  let pos = ref 0 in
  Alcotest.(check string) "first" "abc" (Bytecodec.read_string s ~pos);
  Alcotest.(check string) "empty" "" (Bytecodec.read_string s ~pos);
  Alcotest.(check int) "consumed" (String.length s) !pos;
  Alcotest.check_raises "truncated" (Failure "Bytecodec: truncated string")
    (fun () -> ignore (Bytecodec.read_string "\x04abc" ~pos:(ref 0)));
  (* A length that would read as -1 without the overflow check, and
     the largest length: neither reaches [String.sub]. *)
  Alcotest.check_raises "negative length" (Failure "Bytecodec: varint overflow")
    (fun () ->
      ignore (Bytecodec.read_string (nine_bytes '\x7f' ^ "abc") ~pos:(ref 0)));
  Alcotest.check_raises "max_int length" (Failure "Bytecodec: truncated string")
    (fun () ->
      ignore (Bytecodec.read_string (nine_bytes '\x3f' ^ "abc") ~pos:(ref 0)))

let test_crc32_known_value () =
  (* The standard check value: CRC-32 of "123456789". *)
  Alcotest.(check int32) "check value" 0xCBF43926l
    (Bytecodec.crc32 "123456789");
  Alcotest.(check int32) "empty" 0l (Bytecodec.crc32 "");
  Alcotest.(check int32) "substring" (Bytecodec.crc32 "456")
    (Bytecodec.crc32 ~pos:3 ~len:3 "123456789")

(* The exact bytes: every proxjoin format (v4 index, manifest, WAL,
   frames) stores varints this way, so the encoding must never move. *)
let test_varint_bytes () =
  List.iter
    (fun (n, bytes) ->
      let buf = Buffer.create 16 in
      Bytecodec.write_varint buf n;
      Alcotest.(check string) (Printf.sprintf "bytes of %d" n) bytes
        (Buffer.contents buf))
    [
      (0, "\x00");
      (1, "\x01");
      (127, "\x7f");
      (128, "\x80\x01");
      (300, "\xac\x02");
      (16_384, "\x80\x80\x01");
      (max_int, nine_bytes '\x3f');
    ]

(* A stream of varints and strings, cut short anywhere, fails with a
   [Failure] while decoding the full sequence — never a raw exception,
   never a quiet short read. *)
let test_truncation_fuzz () =
  let buf = Buffer.create 64 in
  Bytecodec.write_varint buf 5;
  Bytecodec.write_string buf "lenovo";
  Bytecodec.write_varint buf 1_000_000;
  Bytecodec.write_string buf "";
  Bytecodec.write_string buf "nba";
  Bytecodec.write_varint buf max_int;
  let s = Buffer.contents buf in
  let decode s =
    let pos = ref 0 in
    let a = Bytecodec.read_varint s ~pos in
    let b = Bytecodec.read_string s ~pos in
    let c = Bytecodec.read_varint s ~pos in
    let d = Bytecodec.read_string s ~pos in
    let e = Bytecodec.read_string s ~pos in
    let f = Bytecodec.read_varint s ~pos in
    (a, b, c, d, e, f, !pos)
  in
  Alcotest.(check bool) "whole stream decodes" true
    (decode s = (5, "lenovo", 1_000_000, "", "nba", max_int, String.length s));
  for cut = 0 to String.length s - 1 do
    match decode (String.sub s 0 cut) with
    | _ -> Alcotest.failf "cut at %d decoded" cut
    | exception Failure _ -> ()
    | exception e ->
        Alcotest.failf "cut at %d: raw exception %s" cut (Printexc.to_string e)
  done

(* Random bytes read as varints and strings: every outcome is a value
   (a non-negative varint, a string inside the input) or a [Failure]. *)
let test_garbage_never_raw_exception () =
  let rng = Prng.create 19 in
  for trial = 1 to 2000 do
    let s =
      String.init (Prng.int rng 24) (fun _ -> Char.chr (Prng.int rng 256))
    in
    let pos = ref 0 in
    match
      while !pos < String.length s do
        if Prng.int rng 2 = 0 then begin
          let v = Bytecodec.read_varint s ~pos in
          if v < 0 then Alcotest.failf "trial %d: varint %d" trial v
        end
        else ignore (Bytecodec.read_string s ~pos)
      done
    with
    | () -> ()
    | exception Failure msg ->
        if not (String.length msg >= 10 && String.sub msg 0 10 = "Bytecodec:")
        then Alcotest.failf "trial %d: unexpected message %S" trial msg
    | exception e ->
        Alcotest.failf "trial %d: raw exception %s" trial
          (Printexc.to_string e)
  done

(* The exported table is the one behind [crc32]: a reader that folds
   it over bytes it cannot hold as a string (a mapped region) gets the
   same checksum. *)
let test_crc_table () =
  Alcotest.(check int) "entries" 256 (Array.length Bytecodec.crc_table);
  Alcotest.(check int) "entry 0" 0 Bytecodec.crc_table.(0);
  Alcotest.(check int) "entry 1" 0x77073096 Bytecodec.crc_table.(1);
  Alcotest.(check int) "entry 255" 0x2D02EF8D Bytecodec.crc_table.(255);
  let fold s =
    let c = ref 0xFFFFFFFF in
    String.iter
      (fun ch ->
        c :=
          Bytecodec.crc_table.((!c lxor Char.code ch) land 0xFF)
          lxor (!c lsr 8))
      s;
    Int32.of_int (!c lxor 0xFFFFFFFF)
  in
  let rng = Prng.create 5 in
  for _ = 1 to 200 do
    let s =
      String.init (Prng.int rng 64) (fun _ -> Char.chr (Prng.int rng 256))
    in
    Alcotest.(check int32) "table fold = crc32" (Bytecodec.crc32 s) (fold s)
  done

(* CRC-32 catches every single-bit error, the corruption the v4 file,
   manifest, WAL and frame checks are there to stop. *)
let test_crc32_detects_bit_flips () =
  let s = "lenovo partners with the nba\x00\xff" in
  let crc = Bytecodec.crc32 s in
  for i = 0 to String.length s - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 lsl bit)));
      if Bytecodec.crc32 (Bytes.to_string b) = crc then
        Alcotest.failf "flip of bit %d in byte %d went undetected" bit i
    done
  done

let with_temp f =
  let path = Filename.temp_file "pj_bytecodec" ".bin" in
  Fun.protect
    ~finally:(fun () ->
      Failpoint.clear ();
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; path ^ ".tmp" ])
    (fun () -> f path)

let buffer_of s =
  let buf = Buffer.create (String.length s) in
  Buffer.add_string buf s;
  buf

let test_file_roundtrip () =
  with_temp (fun path ->
      let all_bytes = String.init 256 Char.chr in
      Bytecodec.write_file_atomic path (buffer_of all_bytes);
      Alcotest.(check string) "every byte value" all_bytes
        (Bytecodec.read_file path);
      Alcotest.(check bool) "no temp file left" false
        (Sys.file_exists (path ^ ".tmp"));
      Bytecodec.write_file_atomic path (buffer_of "");
      Alcotest.(check string) "overwritten, empty" ""
        (Bytecodec.read_file path));
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "pj-no-such" in
  match Bytecodec.read_file missing with
  | _ -> Alcotest.fail "read a missing file"
  | exception Sys_error _ -> ()

(* A panic at either failpoint models a crash mid-publication: the
   file at [path] keeps its old bytes, and a clean write afterwards
   goes through. *)
let test_crashed_write_leaves_old_file () =
  with_temp (fun path ->
      Bytecodec.write_file_atomic path (buffer_of "old contents");
      List.iter
        (fun site ->
          Failpoint.clear ();
          Failpoint.arm site Failpoint.Panic;
          (match
             Bytecodec.write_file_atomic ~fp_write:"test.write"
               ~fp_rename:"test.rename" path (buffer_of "new contents")
           with
          | () -> Alcotest.failf "write survived %s panic" site
          | exception Failpoint.Panicked _ -> ());
          Alcotest.(check string) (site ^ ": file untouched") "old contents"
            (Bytecodec.read_file path))
        [ "test.write"; "test.rename" ];
      Failpoint.clear ();
      Bytecodec.write_file_atomic ~fp_write:"test.write"
        ~fp_rename:"test.rename" path (buffer_of "new contents");
      Alcotest.(check string) "clean write wins" "new contents"
        (Bytecodec.read_file path))

let suite =
  [
    ("bytecodec: varint roundtrip", `Quick, test_varint_roundtrip);
    ("bytecodec: varint sequence", `Quick, test_varint_random_roundtrip);
    ("bytecodec: varint truncation", `Quick, test_varint_truncation);
    ("bytecodec: varint overflow", `Quick, test_varint_overflow);
    ("bytecodec: string lengths", `Quick, test_string_lengths);
    ("bytecodec: crc32 check value", `Quick, test_crc32_known_value);
    ("bytecodec: varint bytes", `Quick, test_varint_bytes);
    ("bytecodec: truncation fuzz", `Quick, test_truncation_fuzz);
    ("bytecodec: no raw exception on garbage", `Quick,
      test_garbage_never_raw_exception);
    ("bytecodec: crc table", `Quick, test_crc_table);
    ("bytecodec: crc32 detects bit flips", `Quick, test_crc32_detects_bit_flips);
    ("bytecodec: file roundtrip", `Quick, test_file_roundtrip);
    ("bytecodec: crashed write leaves old file", `Quick,
      test_crashed_write_leaves_old_file);
  ]
