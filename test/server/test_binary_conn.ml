(* The binary dialect's connection model: one reader and one writer
   thread per connection whatever the pipelining depth, a client that
   stops reading stalls only itself, a client that vanishes mid-flight
   can never receive — or hand anyone else — a stray answer, and
   pipelined ADDDOCs still group-commit. *)

open Pj_server
module Frame = Pj_frame.Frame
module Wire = Pj_frame.Wire

let connect port =
  let c = Test_e2e.connect port in
  (* Nothing here may hang: a stuck read is a Sys_error, i.e. a test
     failure, not a wedged run. *)
  Unix.setsockopt_float c.Test_e2e.fd Unix.SO_RCVTIMEO 20.0;
  c

let bsend (c : Test_e2e.conn) ~id line =
  Wire.write c.Test_e2e.oc { Frame.kind = Frame.Request; id; payload = line }

let brecv (c : Test_e2e.conn) =
  match Wire.read c.Test_e2e.ic with
  | Wire.Frame f -> f
  | Wire.Closed -> Alcotest.fail "binary connection closed unexpectedly"
  | Wire.Bad _ -> Alcotest.fail "server sent a malformed frame"

let brequest c ~id line =
  bsend c ~id line;
  flush c.Test_e2e.oc;
  let f = brecv c in
  Alcotest.(check int) "response id echoes request id" id f.Frame.id;
  f.Frame.payload

let with_job_delay seconds f =
  Pj_util.Failpoint.arm "worker.job" (Pj_util.Failpoint.Delay seconds);
  Fun.protect ~finally:Pj_util.Failpoint.clear f

let wait_until ?(timeout = 5.) cond =
  let give_up = Unix.gettimeofday () +. timeout in
  while (not (cond ())) && Unix.gettimeofday () < give_up do
    Thread.delay 0.005
  done;
  cond ()

(* The [i]th of a family of SEARCHes with pairwise distinct cache keys
   (k varies), and its exact-precision answer. *)
let family, alpha, _, terms = List.hd Test_e2e.queries
let nth_line i = Test_e2e.search_line (family, alpha, 1 + i, terms)

let nth_answer searcher graph i =
  Test_e2e.expected_response ~precision:Protocol.exact_precision searcher
    graph ~family ~alpha ~k:(1 + i) terms

let tasks () = Array.length (Sys.readdir "/proc/self/task")

let test_no_thread_per_request () =
  if not (Sys.file_exists "/proc/self/task") then Alcotest.skip ();
  let config =
    {
      Server.default_config with
      domains = 1;
      queue_capacity = 128;
      binary_inflight = 64;
    }
  in
  Test_e2e.with_server ~config (fun server searcher graph ->
      (* Warm up first, so runtime threads started lazily by a first
         job are not charged to the connection. *)
      let warm = connect (Server.port server) in
      ignore (Test_e2e.request warm (nth_line 99));
      Test_e2e.close warm;
      ignore (wait_until (fun () -> Server.connections server = 0));
      let before = tasks () in
      let conn = connect (Server.port server) in
      Fun.protect
        ~finally:(fun () -> Test_e2e.close conn)
        (fun () ->
          let n = 64 in
          with_job_delay 0.02 (fun () ->
              for i = 0 to n - 1 do
                bsend conn ~id:i (nth_line i)
              done;
              flush conn.Test_e2e.oc;
              (* 64 jobs at 20 ms each on one domain: over a second of
                 work, so the whole sampling window is in flight. *)
              let peak = ref 0 in
              let stop_at = Unix.gettimeofday () +. 0.4 in
              while Unix.gettimeofday () < stop_at do
                peak := max !peak (tasks ());
                Thread.delay 0.01
              done;
              Alcotest.(check bool) "requests still in flight" true
                (Server.inflight server > 0);
              Alcotest.(check bool)
                (Printf.sprintf
                   "at most a reader and a writer per connection (%d threads \
                    before, peak %d)"
                   before !peak)
                true
                (!peak <= before + 2);
              let seen = Array.make n false in
              for _ = 1 to n do
                let f = brecv conn in
                if seen.(f.Frame.id) then
                  Alcotest.failf "id %d answered twice" f.Frame.id;
                seen.(f.Frame.id) <- true;
                Alcotest.(check string)
                  (Printf.sprintf "pipelined answer %d" f.Frame.id)
                  (nth_answer searcher graph f.Frame.id)
                  f.Frame.payload
              done)))

let test_slow_client_isolated () =
  let config =
    { Server.default_config with domains = 1; binary_inflight = 4 }
  in
  Test_e2e.with_server ~config (fun server searcher graph ->
      let port = Server.port server in
      (* Client A: a tiny receive window, a hundred thousand pipelined
         SEARCHes (cache hits after the first), and never a read. Their
         answers outgrow what the kernel buffers for the connection (a
         few MB), so the server's writer for A blocks on the full
         socket and A's reader on the in-flight cap. *)
      let a = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt_int a Unix.SO_RCVBUF 4096;
      Unix.connect a (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let a_oc = Unix.out_channel_of_descr a in
      let a_sender =
        Thread.create
          (fun () ->
            try
              for i = 0 to 99_999 do
                Wire.write a_oc
                  { Frame.kind = Frame.Request; id = i; payload = nth_line 4 }
              done;
              flush a_oc
            with Sys_error _ -> ())
          ()
      in
      let a_gone = ref false in
      let drop_a () =
        if not !a_gone then begin
          a_gone := true;
          (* Shutdown first: it wakes a sender blocked in write. *)
          (try Unix.shutdown a Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
          Thread.join a_sender;
          try Unix.close a with Unix.Unix_error _ -> ()
        end
      in
      Fun.protect ~finally:drop_a (fun () ->
          let cap = config.Server.binary_inflight in
          let requests () =
            Test_e2e.int_field (Server.stats_line server) "requests"
          in
          (* Stuck: every slot taken and no request read, for three
             polls in a row — a server merely starved of CPU for a
             moment does not pass for one. *)
          let stalled () =
            let before = requests () in
            Thread.delay 0.2;
            Server.inflight server = cap && requests () = before
          in
          let rec stuck_for n = n = 0 || (stalled () && stuck_for (n - 1)) in
          let give_up = Unix.gettimeofday () +. 30. in
          let rec wait_stuck () =
            stuck_for 3 || (Unix.gettimeofday () < give_up && wait_stuck ())
          in
          Alcotest.(check bool) "A's answers back up until its writer is stuck"
            true (wait_stuck ());
          (* Client B, on its own connection, is served correctly and
             promptly — fresh searches through the one worker domain
             included. *)
          let b = connect port in
          Fun.protect
            ~finally:(fun () -> Test_e2e.close b)
            (fun () ->
              for i = 0 to 9 do
                let t0 = Unix.gettimeofday () in
                let got = brequest b ~id:(100 + i) (nth_line i) in
                Alcotest.(check string)
                  (Printf.sprintf "B's answer %d" i)
                  (nth_answer searcher graph i) got;
                Alcotest.(check bool) "B answered within the deadline" true
                  (Unix.gettimeofday () -. t0 < config.Server.deadline_s)
              done);
          drop_a ();
          Alcotest.(check bool) "in-flight count returns to zero" true
            (wait_until (fun () -> Server.inflight server = 0))))

let test_disconnect_in_flight () =
  let config = { Server.default_config with domains = 1 } in
  Test_e2e.with_server ~config (fun server searcher graph ->
      let port = Server.port server in
      with_job_delay 0.01 (fun () ->
          (* A: 32 slow searches in flight, then gone. *)
          let a = connect port in
          for i = 0 to 31 do
            bsend a ~id:i (nth_line i)
          done;
          flush a.Test_e2e.oc;
          Alcotest.(check bool) "A's requests are in flight" true
            (wait_until (fun () -> Server.inflight server > 0));
          Test_e2e.close a;
          (* B connects straight away — with A's fd possibly reused had
             the server closed it early — and must see only its own
             answers. *)
          let b = connect port in
          Fun.protect
            ~finally:(fun () -> Test_e2e.close b)
            (fun () ->
              let ids = List.init 8 (fun i -> 1000 + i) in
              List.iter (fun id -> bsend b ~id (nth_line (id - 1000))) ids;
              flush b.Test_e2e.oc;
              List.iter
                (fun _ ->
                  let f = brecv b in
                  if not (List.mem f.Frame.id ids) then
                    Alcotest.failf "B received a frame for id %d" f.Frame.id;
                  Alcotest.(check string)
                    (Printf.sprintf "B's answer for id %d" f.Frame.id)
                    (nth_answer searcher graph (f.Frame.id - 1000))
                    f.Frame.payload)
                ids));
      Alcotest.(check bool) "in-flight count returns to zero" true
        (wait_until (fun () -> Server.inflight server = 0)))

(* A word per document that no other document contains, letters only
   so the tokenizer keeps it whole. *)
let marker i =
  Printf.sprintf "pipe%c%c"
    (Char.chr (Char.code 'a' + (i / 26)))
    (Char.chr (Char.code 'a' + (i mod 26)))

let test_pipelined_adddoc_group_commit () =
  Test_e2e.with_live_server (fun server _live ->
      let conn = connect (Server.port server) in
      Fun.protect
        ~finally:(fun () -> Test_e2e.close conn)
        (fun () ->
          let n = 64 in
          let added = Array.make n (-1) in
          (* A small delay per committed batch makes the coalescing
             deterministic: adds read while one batch commits must
             ride the next. *)
          with_job_delay 0.005 (fun () ->
              for i = 0 to n - 1 do
                bsend conn ~id:i ("ADDDOC pipelined document " ^ marker i)
              done;
              flush conn.Test_e2e.oc;
              for _ = 1 to n do
                let f = brecv conn in
                match String.split_on_char ' ' f.Frame.payload with
                | [ "ADDED"; id ] -> added.(f.Frame.id) <- int_of_string id
                | _ -> Alcotest.failf "unexpected ADDDOC reply %S" f.Frame.payload
              done);
          Array.iteri
            (fun i doc ->
              let line =
                brequest conn ~id:(1000 + i)
                  (Printf.sprintf "SEARCH win 0.2 5 exact:%s" (marker i))
              in
              match Protocol.parse_hits line with
              | Ok pairs ->
                  Alcotest.(check bool)
                    (Printf.sprintf "ADDED %d is searchable (got %S)" doc line)
                    true
                    (List.mem_assoc doc pairs)
              | Error e -> Alcotest.failf "search for %s: %s" (marker i) e)
            added;
          let stats = brequest conn ~id:5000 "STATS" in
          let field = Test_e2e.int_field stats in
          Alcotest.(check int) "adds counted" n (field "adds");
          Alcotest.(check bool)
            (Printf.sprintf "group-committed: %d batches for %d adds"
               (field "ingest_batches") n)
            true
            (field "ingest_batches" < n);
          Alcotest.(check int) "request accounting closes" (field "requests")
            (field "searches" + field "pings" + field "stats"
           + field "parse_errors" + field "adds" + field "deletes"
           + field "flushes")))

let suite =
  [
    ("binary: no thread per request", `Quick, test_no_thread_per_request);
    ("binary: slow client isolated", `Quick, test_slow_client_isolated);
    ("binary: disconnect in flight", `Quick, test_disconnect_in_flight);
    ("binary: pipelined ADDDOC group commit", `Quick, test_pipelined_adddoc_group_commit);
  ]
