(* The STATS line is an interface: routers read [docs=], dashboards and
   the bench kit read everything else. These tests pin it key by key —
   names, order and number format — for the four front ends a deployment
   runs, over real `proxjoin` processes, and hold the line's accounting
   identities while clients write and search concurrently. *)

module E = Test_cluster_e2e
module P = Test_cluster_proc

type format = Int | Dec of int  (** digits after the point *) | Addr

let ints = List.map (fun k -> (k, Int))
let ms = List.map (fun k -> (k, Dec 3))

(* Every front end starts with the request taxonomy, the pool and
   cache gauges and the two latency histograms. *)
let common =
  [ ("uptime_s", Dec 1) ]
  @ ints
      [
        "requests"; "searches"; "served"; "pings"; "stats"; "errors";
        "parse_errors"; "search_errors"; "busy"; "timeouts"; "degraded";
        "shard_failures"; "adds"; "deletes"; "flushes"; "ingest_errors";
        "ingest_batches"; "batched_adds"; "worker_panics"; "worker_respawns";
        "cache_hits"; "cache_misses"; "cache_len"; "queue_len"; "domains";
      ]
  @ ms
      [
        "lat_mean_ms"; "p50_ms"; "p95_ms"; "p99_ms"; "max_ms"; "ingest_p50_ms";
        "ingest_p99_ms";
      ]

let static_keys = common @ ints [ "docs" ]

let live_keys =
  common
  @ ints
      [
        "live"; "docs"; "total_docs"; "segments"; "segment_docs";
        "memtable_docs"; "tombstones"; "generation"; "merges"; "index_flushes";
        "wal_appends"; "wal_fsyncs"; "durable_lag"; "merge_errors";
      ]

let backend_keys ~leg ~replica =
  let p = Printf.sprintf "backend.%d.%d" leg replica in
  [ (p, Addr) ]
  @ ints [ p ^ ".up"; p ^ ".requests"; p ^ ".failures" ]
  @ ms [ p ^ ".p50_ms"; p ^ ".p99_ms" ]

let router_keys =
  common
  @ ints [ "router_legs"; "backend_retries"; "failovers" ]
  @ backend_keys ~leg:0 ~replica:0
  @ backend_keys ~leg:1 ~replica:0

(* ["STATS k=v k=v ..."] as ordered pairs. *)
let fields line =
  match String.split_on_char ' ' line with
  | "STATS" :: tokens ->
      List.map
        (fun tok ->
          match String.index_opt tok '=' with
          | Some i ->
              ( String.sub tok 0 i,
                String.sub tok (i + 1) (String.length tok - i - 1) )
          | None -> Alcotest.failf "token %S of %S is not key=value" tok line)
        tokens
  | _ -> Alcotest.failf "not a STATS line: %S" line

let is_digits s =
  s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

let formatted fmt v =
  match fmt with
  | Int -> is_digits v
  | Dec n -> (
      match String.split_on_char '.' v with
      | [ whole; frac ] ->
          is_digits whole && is_digits frac && String.length frac = n
      | _ -> false)
  | Addr -> (
      match String.split_on_char ':' v with
      | [ "127.0.0.1"; port ] -> is_digits port
      | _ -> false)

let check_keys ~front expected line =
  let got = fields line in
  Alcotest.(check (list string))
    (front ^ ": STATS keys, in order")
    (List.map fst expected) (List.map fst got);
  List.iter2
    (fun (k, fmt) (_, v) ->
      if not (formatted fmt v) then
        Alcotest.failf "%s: %s=%s has the wrong number format" front k v)
    expected got

(* Run [f] with a scratch directory and a [spawn] whose processes are
   all killed and reaped afterwards. *)
let with_procs f =
  let dir = P.mkdtemp () in
  let procs = ref [] in
  let spawn args ~log =
    let p = P.spawn args ~log:(Filename.concat dir log) in
    procs := p :: !procs;
    p
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter P.reap !procs;
      try rm dir with Sys_error _ | Unix.Unix_error _ -> ())
    (fun () -> f dir spawn)

let docs_file dir name texts =
  let path = Filename.concat dir name in
  P.write_docs path texts;
  path

(* One SEARCH first, so the histograms and counters are not all zero,
   then the STATS line. *)
let stats_after_search port =
  let conn = E.connect port in
  Fun.protect
    ~finally:(fun () -> E.close conn)
    (fun () ->
      ignore (E.request conn (E.search_line (List.hd E.queries)));
      E.request conn "STATS")

let test_static_mmap_front () =
  with_procs (fun dir spawn ->
      let docs = docs_file dir "docs.txt" E.texts in
      let idx = Filename.concat dir "idx.pjx4" in
      let compact = spawn [ "compact"; docs; idx ] ~log:"compact.log" in
      (match Unix.waitpid [] compact.P.pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.failf "compact failed: %s" (P.read_file compact.P.log));
      let front =
        spawn [ "serve"; "--index"; idx; "--port"; "0" ] ~log:"front.log"
      in
      check_keys ~front:"static --index" static_keys
        (stats_after_search (P.wait_port front)))

let test_sharded_heap_front () =
  with_procs (fun dir spawn ->
      let docs = docs_file dir "docs.txt" E.texts in
      let front =
        spawn [ "serve"; docs; "--shards"; "2"; "--port"; "0" ] ~log:"front.log"
      in
      check_keys ~front:"sharded heap" static_keys
        (stats_after_search (P.wait_port front)))

let live_front spawn dir =
  let docs = docs_file dir "docs.txt" E.texts in
  spawn
    [ "serve"; docs; "--live"; "--memtable"; "4"; "--port"; "0" ]
    ~log:"front.log"

let test_live_front () =
  with_procs (fun dir spawn ->
      check_keys ~front:"live" live_keys
        (stats_after_search (P.wait_port (live_front spawn dir))))

let test_router_front () =
  with_procs (fun dir spawn ->
      let a = docs_file dir "a.txt" (E.slice ~from:0 ~len:4) in
      let b = docs_file dir "b.txt" (E.slice ~from:4 ~len:4) in
      let back_a = spawn [ "serve"; a; "--port"; "0" ] ~log:"a.log" in
      let back_b = spawn [ "serve"; b; "--port"; "0" ] ~log:"b.log" in
      let port_a = P.wait_port back_a and port_b = P.wait_port back_b in
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
      check_keys ~front:"router" router_keys
        (stats_after_search (P.wait_port router)))

(* The identities a reader may compute from one STATS line must hold on
   every line, including lines rendered while other connections and the
   worker domain are bumping the very values being summed. *)
let test_identities_under_load () =
  with_procs (fun dir spawn ->
      let port = P.wait_port (live_front spawn dir) in
      let stop = Atomic.make false in
      let client c =
        let conn = E.connect port in
        Fun.protect
          ~finally:(fun () -> E.close conn)
          (fun () ->
            let i = ref 0 in
            while not (Atomic.get stop) do
              let q = List.nth E.queries (!i mod List.length E.queries) in
              ignore (E.request conn (E.search_line q));
              ignore
                (E.request conn
                   (Printf.sprintf "ADDDOC lenovo nba partnership c%d i%d" c !i));
              (* An ingest error, counted on the worker domain while
                 STATS renders on a connection thread. *)
              ignore (E.request conn "DELDOC 999999999");
              incr i
            done)
      in
      let clients = List.init 4 (fun c -> Thread.create client c) in
      let lines =
        Fun.protect
          ~finally:(fun () ->
            Atomic.set stop true;
            List.iter Thread.join clients)
          (fun () ->
            let conn = E.connect port in
            Fun.protect
              ~finally:(fun () -> E.close conn)
              (fun () ->
                List.init 200 (fun _ ->
                    Thread.delay 0.001;
                    E.request conn "STATS")))
      in
      let sum line keys =
        let f = fields line in
        List.fold_left (fun acc k -> acc + int_of_string (List.assoc k f)) 0 keys
      in
      let get line k = sum line [ k ] in
      List.iter
        (fun line ->
          Alcotest.(check int) "requests = sum of the request kinds"
            (get line "requests")
            (sum line
               [
                 "searches"; "pings"; "stats"; "parse_errors"; "adds"; "deletes";
                 "flushes";
               ]);
          Alcotest.(check int) "errors = parse + search + ingest errors"
            (get line "errors")
            (sum line [ "parse_errors"; "search_errors"; "ingest_errors" ]);
          Alcotest.(check int) "docs = segment_docs + memtable_docs - tombstones"
            (get line "docs")
            (get line "segment_docs" + get line "memtable_docs"
           - get line "tombstones"))
        lines;
      (* The load really ran alongside the reads. *)
      let last = List.nth lines (List.length lines - 1) in
      Alcotest.(check bool) "clients searched and wrote meanwhile" true
        (get last "searches" > 0 && get last "adds" > 0
        && get last "ingest_errors" > 0))

let suite =
  [
    ("stats keys: static --index front", `Slow, test_static_mmap_front);
    ("stats keys: sharded heap front", `Slow, test_sharded_heap_front);
    ("stats keys: live front", `Slow, test_live_front);
    ("stats keys: router front", `Slow, test_router_front);
    ("stats identities under concurrent load", `Slow, test_identities_under_load);
  ]
