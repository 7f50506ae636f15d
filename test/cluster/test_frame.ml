(* The frame codec under abuse: round-trips, then every way a stream
   can lie — truncation at each byte, single-byte corruption, garbage
   prefixes, hostile lengths — mirroring the WAL torn-tail suite. All
   randomness is seeded: failures reproduce. *)

open Pj_frame

let frame kind id payload = { Frame.kind; id; payload }

let check_eq (a : Frame.t) (b : Frame.t) =
  Alcotest.(check bool)
    (Printf.sprintf "frame id=%d round-trips" a.Frame.id)
    true
    (a.Frame.kind = b.Frame.kind && a.Frame.id = b.Frame.id
   && a.Frame.payload = b.Frame.payload)

let decode_one s =
  let pos = ref 0 in
  Frame.decode s ~pos

let test_roundtrip () =
  let rng = Random.State.make [| 0xF4A3E |] in
  let payloads =
    [
      "";
      "PING";
      "SEARCH win 0.2 5 exact:lenovo exact:nba";
      String.make 4096 'x';
      String.init 512 (fun _ -> Char.chr (Random.State.int rng 256));
    ]
  in
  let ids = [ 0; 1; 127; 128; 300_000; (1 lsl 40) + 17 ] in
  List.iter
    (fun kind ->
      List.iter
        (fun id ->
          List.iter
            (fun payload ->
              let f = frame kind id payload in
              match decode_one (Frame.to_string f) with
              | Ok g -> check_eq f g
              | Error _ -> Alcotest.fail "valid frame failed to decode")
            payloads)
        ids)
    [ Frame.Request; Frame.Response; Frame.Error_frame ]

let test_stream_roundtrip () =
  (* Several frames back to back in one buffer decode in order and
     leave [pos] at the end. *)
  let frames =
    List.init 20 (fun i ->
        frame
          (if i mod 2 = 0 then Frame.Request else Frame.Response)
          (i * 7)
          (Printf.sprintf "payload-%d-%s" i (String.make (i * 13) 'y')))
  in
  let buf = Buffer.create 1024 in
  List.iter (fun f -> Frame.encode buf f) frames;
  let s = Buffer.contents buf in
  let pos = ref 0 in
  List.iter
    (fun f ->
      match Frame.decode s ~pos with
      | Ok g -> check_eq f g
      | Error _ -> Alcotest.fail "stream decode failed")
    frames;
  Alcotest.(check int) "stream fully consumed" (String.length s) !pos

let is_error = function Error _ -> true | Ok _ -> false

(* A well-framed, CRC-valid frame around an arbitrary body. *)
let with_body body =
  let b =
    Bytes.create (Frame.header_bytes + String.length body + Frame.trailer_bytes)
  in
  Bytes.set b 0 Frame.magic_byte;
  Bytes.blit_string "PJ" 0 b 1 2;
  Bytes.set b 3 (Char.chr Frame.version);
  Bytes.set_int32_be b 4 (Int32.of_int (String.length body));
  Bytes.blit_string body 0 b Frame.header_bytes (String.length body);
  Bytes.set_int32_be b
    (Frame.header_bytes + String.length body)
    (Pj_util.Bytecodec.crc32 body);
  Bytes.to_string b

let test_hostile_headers () =
  let f = frame Frame.Request 42 "SEARCH win 0.2 5 exact:a" in
  let s = Bytes.of_string (Frame.to_string f) in
  (* Wrong sniff byte. *)
  let bad = Bytes.copy s in
  Bytes.set bad 0 'S';
  Alcotest.(check bool) "bad magic byte" true (is_error (decode_one (Bytes.to_string bad)));
  (* Wrong magic letters. *)
  let bad = Bytes.copy s in
  Bytes.set bad 1 'X';
  Alcotest.(check bool) "bad magic" true (is_error (decode_one (Bytes.to_string bad)));
  (* Unsupported version. *)
  let bad = Bytes.copy s in
  Bytes.set bad 3 '\x07';
  Alcotest.(check bool) "bad version" true (is_error (decode_one (Bytes.to_string bad)));
  (* Negative body length: must be Oversized, detected from the header
     alone — no allocation proportional to the claim. *)
  let bad = Bytes.copy s in
  Bytes.set_int32_be bad 4 (-1l);
  (match decode_one (Bytes.to_string bad) with
  | Error (Frame.Oversized n) ->
      Alcotest.(check bool) "negative length reported" true (n < 0)
  | _ -> Alcotest.fail "negative length not rejected as Oversized");
  (* Huge body length. *)
  let bad = Bytes.copy s in
  Bytes.set_int32_be bad 4 0x7FFF_FFFFl;
  (match decode_one (Bytes.to_string bad) with
  | Error (Frame.Oversized _) -> ()
  | _ -> Alcotest.fail "huge length not rejected as Oversized");
  (* A CRC-valid body whose id, kind or payload length is a 9-byte
     varint that overflows into the sign bit. *)
  let overflow = String.make 8 '\xff' ^ "\x7f" in
  List.iter
    (fun (what, body) ->
      match decode_one (with_body body) with
      | Error (Frame.Corrupt _) -> ()
      | Error _ | Ok _ ->
          Alcotest.failf "overflowing varint as %s not rejected as Corrupt" what
      | exception e ->
          Alcotest.failf "overflowing varint as %s raised %s" what
            (Printexc.to_string e))
    [
      ("id", overflow ^ "\x01\x04PING");
      ("kind", "\x2a" ^ overflow ^ "\x04PING");
      ("payload length", "\x2a\x01" ^ overflow ^ "PING");
    ]

let test_truncation_everywhere () =
  (* Torn tail: cut a 3-frame stream at every byte boundary. Whatever
     survives must be a prefix of the original frames, the cut frame
     must surface as Truncated (never garbage), and a cut exactly at a
     frame boundary is a clean end of stream. *)
  let frames =
    [
      frame Frame.Request 1 "PING";
      frame Frame.Response 2 (String.make 100 'z');
      frame Frame.Request 3 "STATS";
    ]
  in
  let buf = Buffer.create 256 in
  List.iter (fun f -> Frame.encode buf f) frames;
  let s = Buffer.contents buf in
  let total = String.length s in
  for cut = 0 to total - 1 do
    let sub = String.sub s 0 cut in
    let pos = ref 0 in
    let rec drain acc =
      if !pos = String.length sub then `Clean_end (List.rev acc)
      else
        match Frame.decode sub ~pos with
        | Ok f -> drain (f :: acc)
        | Error e -> `Torn (List.rev acc, e)
    in
    match drain [] with
    | `Clean_end decoded ->
        Alcotest.(check bool)
          (Printf.sprintf "cut %d: clean end only at frame boundary" cut)
          true
          (List.length decoded <= List.length frames)
    | `Torn (decoded, e) ->
        List.iteri (fun i f -> check_eq (List.nth frames i) f) decoded;
        (match e with
        | Frame.Truncated _ -> ()
        | Frame.Corrupt _ | Frame.Oversized _ ->
            Alcotest.fail
              (Printf.sprintf "cut %d: truncation misreported" cut))
  done

let test_corruption_fuzz () =
  (* Flip every single byte of a frame in turn: no flip may decode to
     a different frame (the CRC owns the body, the header checks own
     the rest). A flip may legitimately yield Truncated (length field
     grew) — what it must never do is succeed with altered content. *)
  let f = frame Frame.Response 9000 "HITS 2 0:0.25 5:0.125" in
  let orig = Frame.to_string f in
  for i = 0 to String.length orig - 1 do
    for delta = 1 to 3 do
      let b = Bytes.of_string orig in
      Bytes.set b i (Char.chr ((Char.code orig.[i] + (delta * 85)) land 0xff));
      match decode_one (Bytes.to_string b) with
      | Error _ -> ()
      | Ok g ->
          check_eq f g;
          Alcotest.fail
            (Printf.sprintf "byte %d flip decoded to a different frame" i)
    done
  done

let test_garbage_prefix () =
  let rng = Random.State.make [| 0xBADF00D |] in
  for _ = 1 to 200 do
    let len = 1 + Random.State.int rng 64 in
    let garbage =
      String.init len (fun _ -> Char.chr (Random.State.int rng 256))
    in
    (* Force a non-magic first byte so this is unambiguous garbage. *)
    let garbage =
      if garbage.[0] = Frame.magic_byte then "G" ^ garbage else garbage
    in
    match decode_one garbage with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "garbage decoded as a frame"
  done

let test_wire_over_channels () =
  (* The channel reader sees the same three-frame stream through a
     file, then the same torn/corrupt cases. *)
  let frames =
    [
      frame Frame.Request 11 "SEARCH med 0.1 3 exact:dell";
      frame Frame.Response 11 "HITS 0";
      frame Frame.Request 12 "QUIT";
    ]
  in
  let path = Filename.temp_file "pj_wire" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      List.iter (fun f -> Wire.write oc f) frames;
      close_out oc;
      let ic = open_in_bin path in
      List.iter
        (fun f ->
          match Wire.read ic with
          | Wire.Frame g -> check_eq f g
          | Wire.Closed | Wire.Bad _ -> Alcotest.fail "wire read failed")
        frames;
      (match Wire.read ic with
      | Wire.Closed -> ()
      | _ -> Alcotest.fail "expected clean Closed at EOF");
      close_in ic;
      (* Torn mid-frame through the channel: truncate the file. *)
      let full = In_channel.with_open_bin path In_channel.input_all in
      let oc = open_out_bin path in
      output_string oc (String.sub full 0 (String.length full - 3));
      close_out oc;
      let ic = open_in_bin path in
      (match Wire.read ic with
      | Wire.Frame g -> check_eq (List.nth frames 0) g
      | _ -> Alcotest.fail "first frame should survive");
      (match Wire.read ic with
      | Wire.Frame g -> check_eq (List.nth frames 1) g
      | _ -> Alcotest.fail "second frame should survive");
      (match Wire.read ic with
      | Wire.Bad (Frame.Truncated _) -> ()
      | _ -> Alcotest.fail "torn tail should read Bad Truncated");
      close_in ic)

let test_max_body_respected () =
  (* A frame bigger than the reader's cap is rejected as Oversized even
     though it is perfectly well-formed. *)
  let f = frame Frame.Request 1 (String.make 5000 'q') in
  let s = Frame.to_string f in
  (match decode_one s with
  | Ok g -> check_eq f g
  | Error _ -> Alcotest.fail "5000-byte frame should decode at default cap");
  let pos = ref 0 in
  match Frame.decode ~max_body:4096 s ~pos with
  | Error (Frame.Oversized _) -> ()
  | _ -> Alcotest.fail "cap of 4096 should reject a 5000-byte body"

let tests =
  [
    Alcotest.test_case "frame: round-trip" `Quick test_roundtrip;
    Alcotest.test_case "frame: stream round-trip" `Quick test_stream_roundtrip;
    Alcotest.test_case "frame: hostile headers" `Quick test_hostile_headers;
    Alcotest.test_case "frame: truncation at every byte" `Quick
      test_truncation_everywhere;
    Alcotest.test_case "frame: corruption fuzz" `Quick test_corruption_fuzz;
    Alcotest.test_case "frame: garbage prefix" `Quick test_garbage_prefix;
    Alcotest.test_case "frame: wire over channels" `Quick
      test_wire_over_channels;
    Alcotest.test_case "frame: max_body cap" `Quick test_max_body_respected;
  ]
