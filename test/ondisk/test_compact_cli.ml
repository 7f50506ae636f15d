(* The built CLI against every proxjoin binary file that is not a
   corpus source: [compact] reads raw text or a v4 file and nothing
   else. A legacy v3 corpus (fixtures/legacy_v3.pjix: three documents,
   written by the v1-v3 reference writer before it was deleted), a
   legacy live segment, a live manifest and a WAL (the live suite's
   parent_live_dir) each draw one error line naming the format, a
   non-zero exit, no DST and an untouched source. *)

let exe = "../../bin/main.exe" (* provided by the dune (deps) clause *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Run the CLI with stdout and stderr captured together; return the
   exit code and the output. A run that has not exited after
   [timeout_s] (a [serve] that started serving instead of refusing) is
   killed and fails the test. *)
let timeout_s = 60.
let run args =
  let log = Filename.temp_file "pj_compact_cli" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove log)
    (fun () ->
      let fd =
        Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
      in
      let pid =
        Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd fd
      in
      Unix.close fd;
      let deadline = Unix.gettimeofday () +. timeout_s in
      let rec wait () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when Unix.gettimeofday () > deadline ->
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid);
            Alcotest.failf "%s still running after %.0f s: %s"
              (String.concat " " args) timeout_s (read_file log)
        | 0, _ ->
            Unix.sleepf 0.02;
            wait ()
        | _, Unix.WEXITED c -> c
        | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> -1
      in
      let code = wait () in
      (code, read_file log))

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let with_dst f =
  let dst = Filename.temp_file "pj_compact_cli" ".pjx4" in
  Sys.remove dst;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ dst; dst ^ ".tmp" ])
    (fun () -> f dst)

(* The command exits non-zero with one output line that contains each
   of [says], and leaves [src] as it was. *)
let expect_error ~what ~says args src =
  let before = read_file src in
  let code, out = run args in
  Alcotest.(check bool) (what ^ ": non-zero exit") true (code <> 0);
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) (what ^ ": one error line") 1 (List.length lines);
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: says %S in %S" what needle out)
        true (contains out needle))
    says;
  Alcotest.(check bool) (what ^ ": source untouched") true
    (read_file src = before)

let expect_refused ~what ~magic ~hint args src =
  expect_error ~what ~says:[ magic; hint ] args src

let live_dir = "../live/fixtures/parent_live_dir"

(* (what, magic, source, a word of the advice the error line gives) *)
let refused_sources =
  [
    ("legacy v3 corpus", "PJIX", "fixtures/legacy_v3.pjix", "rebuild");
    ( "legacy live segment",
      "PJSG",
      Filename.concat live_dir "seg-000000.seg",
      "rebuild" );
    ("live manifest", "PJMF", Filename.concat live_dir "MANIFEST", "--live-dir");
    ("live WAL", "PJWL", Filename.concat live_dir "WAL", "--live-dir");
  ]

let test_compact_refuses_binaries () =
  List.iter
    (fun (what, magic, src, hint) ->
      with_dst (fun dst ->
          expect_refused ~what ~magic ~hint [ "compact"; src; dst ] src;
          Alcotest.(check bool) (what ^ ": no DST") false
            (Sys.file_exists dst || Sys.file_exists (dst ^ ".tmp"))))
    refused_sources

(* Text compacts; its v4 output compacts again to the same bytes; and
   a v4 file is no document file for the text-reading commands. *)
let test_text_and_v4_sources () =
  let docs = Filename.temp_file "pj_compact_cli" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove docs)
    (fun () ->
      Out_channel.with_open_bin docs (fun oc ->
          output_string oc
            "lenovo partners with the nba\n\n\
             dell and lenovo compete\n\n\
             the olympic games in beijing\n");
      with_dst (fun v4 ->
          let code, out = run [ "compact"; docs; v4 ] in
          Alcotest.(check int) ("text compacts: " ^ out) 0 code;
          with_dst (fun again ->
              let code, out = run [ "compact"; v4; again ] in
              Alcotest.(check int) ("v4 compacts: " ^ out) 0 code;
              Alcotest.(check bool) "v4 -> v4 is byte-identical" true
                (read_file v4 = read_file again));
          expect_refused ~what:"isearch on v4" ~magic:"PJX4"
            ~hint:"serve --index"
            [ "isearch"; v4; "-t"; "exact:lenovo" ]
            v4))

let legacy_v3 = "fixtures/legacy_v3.pjix"

(* The other document-reading commands share the refusal. *)
let test_search_and_extract_refuse_binaries () =
  expect_refused ~what:"search on v3" ~magic:"PJIX" ~hint:"rebuild"
    [ "search"; "-t"; "exact:lenovo"; legacy_v3 ]
    legacy_v3;
  let wal = Filename.concat live_dir "WAL" in
  expect_refused ~what:"extract on WAL" ~magic:"PJWL" ~hint:"--live-dir"
    [ "extract"; "-t"; "exact:lenovo"; wal ]
    wal

(* [serve FILE] refuses a v4 file before it binds, and [serve --index]
   refuses a v3 file: neither starts serving garbage. *)
let test_serve_refuses_wrong_format () =
  with_dst (fun v4 ->
      let docs = Filename.temp_file "pj_compact_cli" ".txt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove docs)
        (fun () ->
          Out_channel.with_open_bin docs (fun oc ->
              output_string oc "lenovo partners with the nba\n");
          let code, out = run [ "compact"; docs; v4 ] in
          Alcotest.(check int) ("text compacts: " ^ out) 0 code);
      expect_refused ~what:"serve FILE on v4" ~magic:"PJX4"
        ~hint:"serve --index"
        [ "serve"; v4; "--port"; "0" ]
        v4);
  expect_error ~what:"serve --index on v3"
    ~says:[ legacy_v3; "not a v4 proxjoin index" ]
    [ "serve"; "--index"; legacy_v3; "--port"; "0" ]
    legacy_v3

(* Only the exact four-byte magics are refused: shorter files, an empty
   file and text that merely starts with "PJ" are documents. *)
let test_magic_lookalikes_are_text () =
  List.iter
    (fun (contents, n_docs) ->
      let src = Filename.temp_file "pj_compact_cli" ".txt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove src)
        (fun () ->
          Out_channel.with_open_bin src (fun oc -> output_string oc contents);
          with_dst (fun dst ->
              let code, out = run [ "compact"; src; dst ] in
              Alcotest.(check int) (Printf.sprintf "%S compacts: %s" contents out)
                0 code;
              Alcotest.(check bool)
                (Printf.sprintf "%S: %d documents in %S" contents n_docs out)
                true
                (contains out (Printf.sprintf "\n%d documents," n_docs)))))
    [
      ("", 0);
      ("PJ", 1);
      ("PJX", 1);
      ("PJ harvey sings\n\nPJX3 is no magic\n", 2);
    ]

let suite =
  [
    ("compact cli: refuses proxjoin binaries", `Quick,
      test_compact_refuses_binaries);
    ("compact cli: text and v4 sources", `Quick, test_text_and_v4_sources);
    ("compact cli: search and extract refuse binaries", `Quick,
      test_search_and_extract_refuse_binaries);
    ("compact cli: serve refuses the wrong format", `Quick,
      test_serve_refuses_wrong_format);
    ("compact cli: magic lookalikes are text", `Quick,
      test_magic_lookalikes_are_text);
  ]
