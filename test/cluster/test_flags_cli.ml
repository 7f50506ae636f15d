(* Every numeric flag of `serve` and `serve-router`, at 0 and at -1 (in
   the `--flag=-1` form: cmdliner reads `--flag -1` as an unknown
   option), against the built CLI. Each case either refuses with one
   output line and a non-zero exit, or starts a server that answers
   PING; an uncaught exception is neither. Which cases must refuse is
   pinned: 0 is a valid port (ephemeral) and a valid deadline or drain
   duration, every other case is out of range — a stats period of 0
   included (omitting --log-every is how to disable the stats line). *)

module E = Test_cluster_e2e
module P = Test_cluster_proc
module S = Test_stats_keys

let serve_flags =
  [
    "port"; "domains"; "queue"; "cache"; "deadline-ms"; "drain-ms";
    "log-every"; "memtable";
  ]

let router_flags =
  [ "port"; "cache"; "deadline-ms"; "drain-ms"; "log-every"; "binary-inflight" ]

let zero_is_valid = [ "port"; "deadline-ms"; "drain-ms" ]

(* Run one case to its verdict. A server is killed as soon as it has
   answered; [with_procs] reaps whatever is left. *)
let check_case spawn ~base flag value =
  let arg = Printf.sprintf "--%s=%d" flag value in
  let what = String.concat " " (base @ [ arg ]) in
  let args = base @ [ arg ] @ if flag = "port" then [] else [ "--port"; "0" ] in
  let proc = spawn args ~log:(Printf.sprintf "%s%d.log" flag value) in
  let refuse = not (value = 0 && List.mem flag zero_is_valid) in
  match P.wait_banner proc with
  | `Exited code ->
      let out = P.read_file proc.P.log in
      let lines = String.split_on_char '\n' (String.trim out) in
      if not refuse then
        Alcotest.failf "%s: refused (exit %d): %s" what code out;
      Alcotest.(check bool) (what ^ ": non-zero exit") true (code <> 0);
      Alcotest.(check int) (Printf.sprintf "%s: one line in %S" what out) 1
        (List.length lines);
      Alcotest.(check bool) (what ^ ": names the flag") true
        (E.contains out ("--" ^ flag));
      Alcotest.(check bool) (what ^ ": no uncaught exception") false
        (E.contains out "exception")
  | `Port port ->
      if refuse then
        Alcotest.failf "%s: started serving instead of refusing: %s" what
          (P.read_file proc.P.log);
      let conn = E.connect port in
      Fun.protect
        ~finally:(fun () ->
          E.close conn;
          P.reap proc)
        (fun () ->
          Alcotest.(check string) (what ^ ": answers PING") "PONG"
            (E.request conn "PING"))

let cases flags = List.concat_map (fun f -> [ (f, 0); (f, -1) ]) flags

let test_serve_flags () =
  S.with_procs (fun dir spawn ->
      let docs = S.docs_file dir "docs.txt" E.texts in
      List.iter
        (fun (flag, value) ->
          check_case spawn ~base:[ "serve"; docs ] flag value)
        (cases serve_flags))

let test_router_flags () =
  S.with_procs (fun dir spawn ->
      let docs = S.docs_file dir "docs.txt" E.texts in
      let backend =
        P.wait_port (spawn [ "serve"; docs; "--port"; "0" ] ~log:"backend.log")
      in
      let base =
        [ "serve-router"; "--backend"; Printf.sprintf "127.0.0.1:%d" backend ]
      in
      List.iter
        (fun (flag, value) -> check_case spawn ~base flag value)
        (cases router_flags))

let suite =
  [
    ("flags: serve numeric flags at 0 and -1", `Slow, test_serve_flags);
    ("flags: serve-router numeric flags at 0 and -1", `Slow, test_router_flags);
  ]
