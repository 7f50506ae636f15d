(* A PJX4 file that persists a multi-shard layout serves as one index:
   over the socket, `serve --index` on a 3-shard file answers every
   query byte-identically to the one-shard file of the same corpus (and
   to the in-process monolithic oracle), in both wire dialects;
   `inspect` still reports the layout, and `compact` carries it through
   unchanged, so re-compacting the file reproduces its bytes. *)

module E = Test_cluster_e2e
module P = Test_cluster_proc
module S = Test_stats_keys

let run_to_exit spawn args ~log =
  let proc = spawn args ~log in
  match P.wait_banner proc with
  | `Exited 0 -> P.read_file proc.P.log
  | `Exited code ->
      Alcotest.failf "%s: exit %d: %s" (String.concat " " args) code
        (P.read_file proc.P.log)
  | `Port _ -> Alcotest.failf "%s started serving" (String.concat " " args)

(* Every query's answer on a text connection and on a binary one (a
   connection speaks the dialect of its first byte). *)
let responses port =
  let text = E.connect port and binary = E.connect port in
  Fun.protect
    ~finally:(fun () ->
      E.close text;
      E.close binary)
    (fun () ->
      List.mapi
        (fun i q ->
          let line = E.search_line q in
          (E.request text line, snd (E.brequest binary ~id:(i + 1) line)))
        E.queries)

let test_layout_serves_as_one_index () =
  S.with_procs (fun dir spawn ->
      let docs = S.docs_file dir "docs.txt" E.texts in
      let path name = Filename.concat dir name in
      ignore
        (run_to_exit spawn [ "compact"; docs; path "one.pjx4" ] ~log:"c1.log");
      let mapped = Pj_ondisk.Mapped_index.open_file (path "one.pjx4") in
      Alcotest.(check (array int)) "text compacts to one shard"
        [| List.length E.texts |]
        (Pj_ondisk.Mapped_index.counts mapped);
      Pj_ondisk.Writer.write ~counts:[| 3; 3; 2 |]
        (Pj_ondisk.Mapped_index.index mapped)
        (path "three.pjx4");
      let serve name =
        P.wait_port
          (spawn [ "serve"; "--index"; path name; "--port"; "0" ]
             ~log:(name ^ ".log"))
      in
      let one = responses (serve "one.pjx4")
      and three = responses (serve "three.pjx4") in
      List.iteri
        (fun i ((family, alpha, k, terms) as q) ->
          let text_one, bin_one = List.nth one i
          and text_three, bin_three = List.nth three i in
          let line = E.search_line q in
          Alcotest.(check string) ("mono oracle: " ^ line)
            (E.mono_response ~family ~alpha ~k terms)
            text_one;
          Alcotest.(check string) ("3 shards = 1 shard, text: " ^ line)
            text_one text_three;
          Alcotest.(check string) ("3 shards = 1 shard, binary: " ^ line)
            bin_one bin_three)
        E.queries;
      let inspect =
        run_to_exit spawn [ "inspect"; path "three.pjx4" ] ~log:"inspect.log"
      in
      Alcotest.(check bool) ("inspect reports 3 shards: " ^ inspect) true
        (E.contains inspect " in 3 shards,");
      ignore
        (run_to_exit spawn
           [ "compact"; path "three.pjx4"; path "again.pjx4" ]
           ~log:"c3.log");
      Alcotest.(check bool) "re-compacting reproduces the bytes" true
        (P.read_file (path "three.pjx4") = P.read_file (path "again.pjx4")))

let suite =
  [
    ( "layout: persisted shards serve as one index",
      `Quick,
      test_layout_serves_as_one_index );
  ]
