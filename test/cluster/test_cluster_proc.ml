(* The chaos arm at full distance: real processes, real kill -9. Two
   `proxjoin serve` shard backends and one `proxjoin serve-router` are
   spawned from the built CLI; a client hammers the router while one
   backend is killed -9 mid-stream. Every response must stay a HITS or
   OK-DEGRADED line (never a hang — client sockets carry a 20 s receive
   timeout via Test_cluster_e2e.connect), and once the dust settles the
   degraded answer must equal the in-process oracle over the surviving
   slice, byte for byte. *)

module E = Test_cluster_e2e

let exe = "../../bin/main.exe" (* provided by the dune (deps) clause *)

let mkdtemp () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "pj_cluster_proc_%d_%d" (Unix.getpid ())
         (int_of_float (Unix.gettimeofday () *. 1000.) mod 1_000_000))
  in
  Unix.mkdir dir 0o700;
  dir

let write_docs path texts =
  let oc = open_out path in
  List.iter (fun t -> output_string oc (t ^ "\n\n")) texts;
  close_out oc

type proc = { pid : int; log : string }

let spawn args ~log =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd fd
  in
  Unix.close fd;
  { pid; log }

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error _ -> ""

(* Poll the process's log for its " on 127.0.0.1:PORT " banner — both
   `serving` and `routing` print one — and return [`Port] with the bound
   port, or [`Exited] with the exit code when the process ends first. *)
let wait_banner proc =
  let needle = " on 127.0.0.1:" in
  let deadline = Unix.gettimeofday () +. 15. in
  let rec poll () =
    let log = read_file proc.log in
    let here =
      let nl = String.length needle and ll = String.length log in
      let rec find i = if i + nl > ll then None
        else if String.sub log i nl = needle then Some (i + nl)
        else find (i + 1)
      in
      find 0
    in
    match here with
    | Some start ->
        let stop = ref start in
        while !stop < String.length log
              && log.[!stop] >= '0' && log.[!stop] <= '9' do
          incr stop
        done;
        if !stop = start then Alcotest.failf "no port in banner: %s" log
        else `Port (int_of_string (String.sub log start (!stop - start)))
    | None -> (
        (* A child that ended is never going to print it. *)
        let wait () =
          if Unix.gettimeofday () > deadline then
            Alcotest.failf "process %d never printed its banner; log: %s"
              proc.pid (read_file proc.log);
          Thread.delay 0.05;
          poll ()
        in
        match Unix.waitpid [ Unix.WNOHANG ] proc.pid with
        | 0, _ -> wait ()
        | _, Unix.WEXITED code -> `Exited code
        | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> `Exited (-1)
        | exception Unix.Unix_error _ -> wait ())
  in
  poll ()

let wait_port proc =
  match wait_banner proc with
  | `Port port -> port
  | `Exited _ ->
      Alcotest.failf "process %d exited before binding; log: %s" proc.pid
        (read_file proc.log)

let reap proc =
  (try Unix.kill proc.pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] proc.pid) with Unix.Unix_error _ -> ()

let is_prefix p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let test_kill9_midstream () =
  let dir = mkdtemp () in
  let docs_a = Filename.concat dir "docs_a.txt" in
  let docs_b = Filename.concat dir "docs_b.txt" in
  let slice_a = E.slice ~from:0 ~len:4 and slice_b = E.slice ~from:4 ~len:4 in
  write_docs docs_a slice_a;
  write_docs docs_b slice_b;
  let procs = ref [] in
  let spawn args ~log =
    let p = spawn args ~log:(Filename.concat dir log) in
    procs := p :: !procs;
    p
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter reap !procs;
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let back_a = spawn [ "serve"; docs_a; "--port"; "0" ] ~log:"a.log" in
      let back_b = spawn [ "serve"; docs_b; "--port"; "0" ] ~log:"b.log" in
      let port_a = wait_port back_a and port_b = wait_port back_b in
      let router =
        spawn
          [
            "serve-router";
            "--backend"; Printf.sprintf "127.0.0.1:%d" port_a;
            "--backend"; Printf.sprintf "127.0.0.1:%d" port_b;
            "--port"; "0";
          ]
          ~log:"router.log"
      in
      let rport = wait_port router in
      (* Healthy sanity: routed == in-process mono, across processes. *)
      let conn = E.connect rport in
      Fun.protect
        ~finally:(fun () -> E.close conn)
        (fun () ->
          let family, alpha, k, terms = List.hd E.queries in
          Alcotest.(check string) "routed matches mono across processes"
            (E.mono_response ~family ~alpha ~k terms)
            (E.request conn (E.search_line (List.hd E.queries)));
          (* Hammer from a second connection while we kill -9 the B
             backend mid-stream. Every answer must be a complete or a
             degraded result — never ERR, never a hang. *)
          let violations = ref [] in
          let hammer () =
            let c = E.connect rport in
            Fun.protect
              ~finally:(fun () -> E.close c)
              (fun () ->
                for i = 0 to 199 do
                  let q = List.nth E.queries (i mod List.length E.queries) in
                  let got = E.request c (E.search_line q) in
                  if
                    not
                      (is_prefix "HITS " got
                      || is_prefix "OK-DEGRADED " got
                      || got = "TIMEOUT")
                  then violations := (i, got) :: !violations
                done)
          in
          let t = Thread.create hammer () in
          Thread.delay 0.2;
          Unix.kill back_b.pid Sys.sigkill;
          ignore (Unix.waitpid [] back_b.pid);
          Thread.join t;
          (match !violations with
          | [] -> ()
          | (i, got) :: _ ->
              Alcotest.failf "%d contract violations, e.g. request %d: %S"
                (List.length !violations) i got);
          (* Steady state after the kill: a *fresh* query (the hammered
             ones are cached from before the kill) must be OK-DEGRADED
             with the exact top-k of the surviving slice. *)
          let family = "win" and alpha = 0.25 and k = 6 in
          let terms = [ "exact:dell"; "exact:partnership" ] in
          let pairs = E.slice_pairs ~base:0 slice_a ~family ~alpha ~k terms in
          Alcotest.(check string) "post-kill answer = survivor oracle"
            (Pj_server.Protocol.ok_degraded_ids ~failed_shards:[ 1 ] pairs)
            (E.request conn
               (Printf.sprintf "SEARCH %s %g %d %s" family alpha k
                  (String.concat " " terms)));
          (* And the router's STATS shows the tier-level story. *)
          let stats = E.request conn "STATS" in
          Alcotest.(check bool) "dead backend reported down" true
            (E.contains stats "backend.1.0.up=0");
          Alcotest.(check bool) "degraded responses counted" true
            (E.int_field stats "degraded" >= 1)))

let suite =
  [ ("cluster: kill -9 one backend mid-stream", `Slow, test_kill9_midstream) ]
