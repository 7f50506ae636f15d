(* The load generator's connection: the pipelined binary protocol over
   one socket, driven by exactly two threads — the caller's thread
   sends on a due-time schedule and one receiver thread matches
   responses to requests by id. *)

module Frame = Pj_frame.Frame
module Wire = Pj_frame.Wire

let now = Pj_util.Timing.monotonic_now

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel; port : int }

let connect port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt fd TCP_NODELAY true;
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; port }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
let port t = t.port

type result = {
  due : float array;  (** absolute monotonic due times *)
  lag : float array;  (** sender ready time - due time, seconds *)
  outstanding : int array;  (** unanswered requests when each was sent *)
  latency : float array;  (** response time - due time; nan if unanswered *)
  response : string array;  (** "" if unanswered *)
}

(* Send [lines.(i)] at [due.(i)] (absolute) and collect every response,
   waiting at most [drain_s] after the last due time for stragglers. A
   request never answered keeps latency nan and response "". The
   connection is unusable afterwards when something went unanswered. *)
let open_loop t ~lines ~due ~drain_s =
  let n = Array.length lines in
  let latency = Array.make n Float.nan and response = Array.make n "" in
  let lag = Array.make n 0. and outstanding = Array.make n 0 in
  let answered = Atomic.make 0 in
  let receiver =
    Thread.create
      (fun () ->
        let rec loop () =
          if Atomic.get answered < n then
            match Wire.read t.ic with
            | Wire.Frame { Frame.kind = Frame.Response; id; payload }
              when id >= 0 && id < n && response.(id) = "" ->
                latency.(id) <- now () -. due.(id);
                response.(id) <- payload;
                Atomic.incr answered;
                loop ()
            | Wire.Frame _ | Wire.Closed | Wire.Bad _ -> ()
            | exception (Sys_error _ | End_of_file | Unix.Unix_error _) -> ()
        in
        loop ())
      ()
  in
  (try
     for i = 0 to n - 1 do
       let wait = due.(i) -. now () in
       if wait > 0. then Thread.delay wait;
       let ready = now () in
       lag.(i) <- ready -. due.(i);
       outstanding.(i) <- i - Atomic.get answered;
       Wire.write_flush t.oc { Frame.kind = Frame.Request; id = i; payload = lines.(i) }
     done
   with Sys_error _ | Unix.Unix_error _ -> ());
  let give_up = (if n = 0 then now () else due.(n - 1)) +. drain_s in
  while Atomic.get answered < n && now () < give_up do
    Thread.delay 0.002
  done;
  if Atomic.get answered < n then
    (try Unix.shutdown t.fd SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Thread.join receiver;
  { due; lag; outstanding; latency; response }

(* Pipelined burst: every request due now. *)
let burst t lines ~drain_s =
  let start = now () in
  open_loop t ~lines ~due:(Array.make (Array.length lines) start) ~drain_s

(* One closed-loop round trip: (seconds, response). *)
let round_trip t line =
  let t0 = now () in
  Wire.write_flush t.oc { Frame.kind = Frame.Request; id = 0; payload = line };
  match Wire.read t.ic with
  | Wire.Frame { Frame.kind = Frame.Response; payload; _ } -> (now () -. t0, payload)
  | _ -> failwith "round trip: no response frame"
