type outcome = Line of string | Down of string | Timed_out

(* A request in flight. It is resolved exactly once: by whoever
   removes it from [pending] (reader, timer, connection failure), or
   directly by [submit] when it never got that far. *)
type waiter = {
  reply : outcome -> unit;
  deadline : float;
  t0 : float;  (* submit time, for the latency histogram *)
}

type conn = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
}

type t = {
  host : string;
  port : int;
  name : string;
  m : Mutex.t;
      (* Guards every mutable field below plus the histogram. Held
         across the (loopback, small-frame) request write: the write
         itself is the serialization point for pipelined frames. *)
  mutable conn : conn option;
  mutable readers : Thread.t list;
      (* Every reader thread ever spawned; exited ones join
         instantly at [close]. One live reader per connection. *)
  mutable timer : Thread.t option;
  mutable next_id : int;
  pending : (int, waiter) Hashtbl.t;
  mutable requests : int;
  mutable failures : int;
  mutable consecutive_failures : int;
  mutable last_connect_attempt : float;
      (* Circuit breaker: with [breaker_failures]+ consecutive failures,
         reconnects are attempted at most once per [breaker_cooldown_s];
         submits inside the window fail [Down] without a connect. A dead
         backend otherwise costs every request a serialized (under
         [t.m]) TCP connect — the failure path must be cheaper than the
         success path, not dearer. *)
  mutable closed : bool;
  latency : Pj_util.Histogram.t;
  mutable on_health : bool -> unit;
}

let breaker_failures = 3
let breaker_cooldown_s = 0.05

let create ~host ~port =
  {
    host;
    port;
    name = Printf.sprintf "%s:%d" host port;
    m = Mutex.create ();
    conn = None;
    readers = [];
    timer = None;
    next_id = 0;
    pending = Hashtbl.create 64;
    requests = 0;
    failures = 0;
    consecutive_failures = 0;
    last_connect_attempt = neg_infinity;
    closed = false;
    latency = Pj_util.Histogram.create ();
    on_health = ignore;
  }

let name t = t.name
let on_health t f = t.on_health <- f

let with_lock t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* Run [f] under [t.m], then the follow-ups it returned with the lock
   released: completions (which may submit to another backend, or
   render and hand a frame to a client's writer) and health
   notifications never run under the lock. What a follow-up raises is
   its own failure: it must not kill the reader or timer thread that
   ran it. *)
let locked t f =
  let v, after = with_lock t f in
  List.iter (fun k -> try k () with _ -> ()) after;
  v

(* Record one request's fate; returns its completion. Caller holds
   [t.m]. *)
let observe_locked t w outcome =
  (match outcome with
  | Line _ ->
      t.consecutive_failures <- 0;
      Pj_util.Histogram.observe t.latency
        (Pj_util.Timing.monotonic_now () -. w.t0)
  | Down _ | Timed_out ->
      t.failures <- t.failures + 1;
      t.consecutive_failures <- t.consecutive_failures + 1);
  fun () -> w.reply outcome

(* Drop [c] (if it is still the current connection) and fail every
   in-flight request: once a frame boundary or the transport is gone,
   no pending response can be trusted to arrive. Caller holds [t.m];
   returns the follow-ups (failed completions, the health drop). *)
let fail_conn_locked t c reason =
  let is_current = match t.conn with Some c' -> c' == c | None -> false in
  if not is_current then []
  else begin
    t.conn <- None;
    (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    close_out_noerr c.oc;
    close_in_noerr c.ic;
    let failed =
      Hashtbl.fold
        (fun _ w acc -> observe_locked t w (Down reason) :: acc)
        t.pending []
    in
    Hashtbl.reset t.pending;
    let on_health = t.on_health in
    (fun () -> on_health false) :: failed
  end

let reader t c =
  let rec loop () =
    let event =
      match Pj_frame.Wire.read c.ic with
      | exception Sys_error _ -> `Fail "connection error"
      | Pj_frame.Wire.Closed -> `Fail "backend closed connection"
      | Pj_frame.Wire.Bad _ -> `Fail "bad frame from backend"
      | Pj_frame.Wire.Frame f -> `Frame f
    in
    match event with
    | `Fail reason -> locked t (fun () -> ((), fail_conn_locked t c reason))
    | `Frame { Pj_frame.Frame.kind; id; payload } ->
        let continue =
          locked t (fun () ->
              match t.conn with
              | Some c' when c' == c -> begin
                  match kind with
                  | Pj_frame.Frame.Response -> (
                      match Hashtbl.find_opt t.pending id with
                      | Some w ->
                          Hashtbl.remove t.pending id;
                          (true, [ observe_locked t w (Line payload) ])
                      | None -> (true, []) (* the deadline won the race *))
                  | Pj_frame.Frame.Error_frame ->
                      (* The server is failing the whole connection
                         (its text analogue closes after one ERR). *)
                      ( false,
                        fail_conn_locked t c
                          (Printf.sprintf "backend failed connection: %s"
                             payload) )
                  | Pj_frame.Frame.Request ->
                      (false, fail_conn_locked t c "protocol violation from backend")
                end
              | _ -> (false, []) (* a newer connection took over; exit *))
        in
        if continue then loop ()
  in
  loop ()

(* Expire pending requests whose deadline has passed. 5 ms granularity
   bounds only how late a TIMEOUT fires — successful responses run
   their completion from the reader immediately. *)
let timer t =
  let rec loop () =
    let live =
      locked t (fun () ->
          if t.closed then (false, [])
          else begin
            let now = Pj_util.Timing.monotonic_now () in
            let expired =
              Hashtbl.fold
                (fun id w acc ->
                  if w.deadline <= now then (id, w) :: acc else acc)
                t.pending []
            in
            ( true,
              List.map
                (fun (id, w) ->
                  Hashtbl.remove t.pending id;
                  observe_locked t w Timed_out)
                expired )
          end)
    in
    if live then begin
      Thread.delay 0.005;
      loop ()
    end
  in
  loop ()

exception Breaker_open

let connect_locked t =
  let now = Pj_util.Timing.monotonic_now () in
  if
    t.consecutive_failures >= breaker_failures
    && now < t.last_connect_attempt +. breaker_cooldown_s
  then raise Breaker_open;
  t.last_connect_attempt <- now;
  Pj_util.Failpoint.hit "router.connect";
  let addr =
    try Unix.inet_addr_of_string t.host
    with Failure _ -> (Unix.gethostbyname t.host).Unix.h_addr_list.(0)
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (addr, t.port)) with
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  | () ->
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      let c =
        {
          fd;
          ic = Unix.in_channel_of_descr fd;
          oc = Unix.out_channel_of_descr fd;
        }
      in
      t.conn <- Some c;
      t.readers <- Thread.create (fun () -> reader t c) () :: t.readers;
      if t.timer = None then
        t.timer <- Some (Thread.create (fun () -> timer t) ());
      c

let submit t ~line ~deadline reply =
  let w = { reply; deadline; t0 = Pj_util.Timing.monotonic_now () } in
  locked t (fun () ->
      t.requests <- t.requests + 1;
      let down reason = ((), [ observe_locked t w (Down reason) ]) in
      if t.closed then down "backend handle closed"
      else
        (* A first connection is not a health change; a connection
           re-established after one was lost is. *)
        let reconnect = Option.is_none t.conn && t.readers <> [] in
        match (match t.conn with Some c -> c | None -> connect_locked t) with
        | exception Pj_util.Failpoint.Injected site ->
            down (Printf.sprintf "failpoint %s" site)
        | exception Breaker_open ->
            down (Printf.sprintf "%s down (breaker open)" t.name)
        | exception Unix.Unix_error (e, _, _) ->
            down
              (Printf.sprintf "connect %s: %s" t.name (Unix.error_message e))
        | c -> (
            let up = if reconnect then [ (fun () -> t.on_health true) ] else [] in
            let id = t.next_id in
            t.next_id <- t.next_id + 1;
            Hashtbl.replace t.pending id w;
            match
              Pj_frame.Wire.write_flush c.oc
                {
                  Pj_frame.Frame.kind = Pj_frame.Frame.Request;
                  id;
                  payload = line;
                }
            with
            | () -> ((), up)
            | exception Sys_error msg ->
                (* [fail_conn_locked] resolves [w] too — it is pending. *)
                ( (),
                  up
                  @ fail_conn_locked t c (Printf.sprintf "write failed: %s" msg)
                )))

let request t ~line ~deadline =
  let result = Pj_util.Ivar.create () in
  submit t ~line ~deadline (Pj_util.Ivar.fill result);
  Pj_util.Ivar.read result

let fetch_docs t ~deadline =
  match request t ~line:"STATS" ~deadline with
  | Down reason -> Error reason
  | Timed_out -> Error "STATS timed out"
  | Line line -> (
      match Pj_server.Metrics.int_field line "docs" with
      | Some n -> Ok n
      | None ->
          Error
            (Printf.sprintf
               "%s reports no docs= in STATS (older server? give an explicit \
                @BASE)"
               t.name))

type health = {
  up : bool;
  requests : int;
  failures : int;
  consecutive_failures : int;
  p50_ms : float;
  p99_ms : float;
}

let health t =
  with_lock t (fun () ->
      {
        up = t.conn <> None;
        requests = t.requests;
        failures = t.failures;
        consecutive_failures = t.consecutive_failures;
        p50_ms = 1000. *. Pj_util.Histogram.percentile t.latency 50.;
        p99_ms = 1000. *. Pj_util.Histogram.percentile t.latency 99.;
      })

let close t =
  let to_join =
    locked t (fun () ->
        if t.closed then ([], [])
        else begin
          t.closed <- true;
          let failed =
            match t.conn with
            | Some c -> fail_conn_locked t c "backend handle closed"
            | None -> []
          in
          let ths = t.readers @ Option.to_list t.timer in
          t.readers <- [];
          t.timer <- None;
          (ths, failed)
        end)
  in
  List.iter Thread.join to_join
