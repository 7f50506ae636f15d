type outcome =
  | Hits of Pj_engine.Searcher.hit list
  | Degraded of Pj_engine.Searcher.hit list * int list
  | Timed_out
  | Failed of string

type search =
  scoring:Pj_core.Scoring.t ->
  k:int ->
  deadline:float ->
  Pj_matching.Query.t ->
  (Pj_engine.Searcher.hit list * int list, [ `Timeout ]) result

let of_searcher searcher ~scoring ~k ~deadline query =
  (* A monolithic index has no shards to lose: complete or timed out. *)
  Result.map
    (fun hits -> (hits, []))
    (Pj_engine.Searcher.search_within ~k ~deadline searcher scoring query)

let of_shard_searcher sharded ~scoring ~k ~deadline query =
  Result.map
    (fun { Pj_engine.Shard_searcher.hits; failed } -> (hits, failed))
    (Pj_engine.Shard_searcher.search_degraded ~k ~deadline sharded scoring
       query)

let of_live live ~scoring ~k ~deadline query =
  (* Like a monolithic index: a snapshot search is complete or timed
     out, never degraded. *)
  Result.map
    (fun hits -> (hits, []))
    (Pj_live.Live_index.search_within ~k ~deadline live scoring query)

(* Searches and ingest tasks share the queue and the worker domains:
   one pool, one backpressure bound, one supervision story. Each job
   carries its completion: the worker that runs the job calls it
   exactly once, with no lock held, and nobody blocks waiting for it. *)
type job =
  | Search_job of {
      scoring : Pj_core.Scoring.t;
      k : int;
      deadline : float;
      query : Pj_matching.Query.t;
      reply : outcome -> unit;
    }
  | Task_job of { run : unit -> string; reply : (string, string) result -> unit }

type t = {
  queue : job Work_queue.t;
  search : search;
  domains : int;
  workers : unit Domain.t option array;
      (* [None] after the supervisor reclaimed a panicked domain it did
         not replace (shutdown); otherwise the slot's current domain. *)
  m : Mutex.t;
  c : Condition.t;  (* wakes the supervisor: dead slot, exit, or stop *)
  dead : int Queue.t;  (* slots whose domain died on a panic *)
  mutable live : int;  (* worker domains that have not terminated *)
  mutable stopping : bool;
  panics : int Atomic.t;
  respawns : int Atomic.t;
  mutable supervisor : Thread.t option;
}

(* A completion is the submitter's code (render, cache, hand a frame
   to a connection's writer). Whatever it raises is its own failure,
   not this job's: it must neither be reported as one nor kill the
   worker. *)
let complete reply v = try reply v with _ -> ()

let panic_message site = Printf.sprintf "worker panicked (failpoint %s)" site

let execute (search : search) = function
  | Search_job job ->
      (* A job that sat in the queue past its deadline is not worth
         starting — the client's budget is wall-clock, queueing
         included. *)
      let outcome =
        if Pj_util.Timing.monotonic_now () > job.deadline then Timed_out
        else
          match
            Pj_util.Failpoint.hit "worker.job";
            search ~scoring:job.scoring ~k:job.k ~deadline:job.deadline
              job.query
          with
          | Ok (hits, []) -> Hits hits
          | Ok (hits, failed) -> Degraded (hits, failed)
          | Error `Timeout -> Timed_out
          | exception (Pj_util.Failpoint.Panicked site as e) ->
              (* A panic models a crash of this worker: answer the
                 client (it must never wait on a dead domain), then let
                 the exception kill the worker loop — the supervisor
                 respawns. *)
              complete job.reply (Failed (panic_message site));
              raise e
          | exception e -> Failed (Printexc.to_string e)
      in
      complete job.reply outcome
  | Task_job { run; reply } ->
      (* No deadline: a write the queue accepted is carried out — a
         client that has seen ADDED must find the document. *)
      let r =
        match
          Pj_util.Failpoint.hit "worker.job";
          run ()
        with
        | line -> Ok line
        | exception (Pj_util.Failpoint.Panicked site as e) ->
            complete reply (Error (panic_message site));
            raise e
        | exception e -> Error (Printexc.to_string e)
      in
      complete reply r

let worker_loop search queue =
  let rec go () =
    match Work_queue.pop queue with
    | None -> ()
    | Some job ->
        execute search job;
        go ()
  in
  go ()

let rec worker_body t slot () =
  match worker_loop t.search t.queue with
  | () ->
      (* Normal exit: the queue closed and drained. *)
      Mutex.lock t.m;
      t.live <- t.live - 1;
      Condition.broadcast t.c;
      Mutex.unlock t.m
  | exception _ ->
      (* Only a panic escapes [execute]; this domain is done for.
         Report the slot so the supervisor can reclaim and replace
         it. *)
      Atomic.incr t.panics;
      Mutex.lock t.m;
      Queue.push slot t.dead;
      Condition.broadcast t.c;
      Mutex.unlock t.m

(* Supervision: join each panicked domain and spawn a replacement into
   its slot, so the pool never silently shrinks. During shutdown a
   replacement is still spawned while jobs remain queued (each owes
   its submitter a completion);
   once the queue is empty the slot is retired instead. The loop ends
   only when a stop was requested, every dead slot is reclaimed, and
   every worker domain has terminated — so after [Thread.join
   supervisor] the [workers] array is stable and fully joinable. *)
and supervisor_loop t () =
  Mutex.lock t.m;
  let rec go () =
    if Queue.is_empty t.dead && not (t.stopping && t.live = 0) then begin
      Condition.wait t.c t.m;
      go ()
    end
    else if not (Queue.is_empty t.dead) then begin
      let slot = Queue.pop t.dead in
      let dead_domain =
        match t.workers.(slot) with Some d -> d | None -> assert false
      in
      let respawn = (not t.stopping) || Work_queue.length t.queue > 0 in
      if not respawn then begin
        t.workers.(slot) <- None;
        t.live <- t.live - 1
      end;
      Mutex.unlock t.m;
      Domain.join dead_domain;
      if respawn then begin
        let d = Domain.spawn (worker_body t slot) in
        Atomic.incr t.respawns;
        Mutex.lock t.m;
        t.workers.(slot) <- Some d
      end
      else Mutex.lock t.m;
      go ()
    end
  in
  go ();
  Mutex.unlock t.m

let create ~domains ~queue_capacity search =
  let domains = Stdlib.max 1 domains in
  let queue = Work_queue.create ~capacity:queue_capacity in
  let t =
    {
      queue;
      search;
      domains;
      workers = Array.make domains None;
      m = Mutex.create ();
      c = Condition.create ();
      dead = Queue.create ();
      live = domains;
      stopping = false;
      panics = Atomic.make 0;
      respawns = Atomic.make 0;
      supervisor = None;
    }
  in
  for slot = 0 to domains - 1 do
    t.workers.(slot) <- Some (Domain.spawn (worker_body t slot))
  done;
  t.supervisor <- Some (Thread.create (supervisor_loop t) ());
  t

let domains t = t.domains
let queue_length t = Work_queue.length t.queue
let panics t = Atomic.get t.panics
let respawns t = Atomic.get t.respawns

let live t =
  Mutex.lock t.m;
  let n = t.live in
  Mutex.unlock t.m;
  n

let submit t ~scoring ~k ~deadline query reply =
  Work_queue.try_push t.queue
    (Search_job { scoring; k; deadline; query; reply })

let submit_task t run reply = Work_queue.try_push t.queue (Task_job { run; reply })

let run t ~scoring ~k ~deadline query =
  let result = Pj_util.Ivar.create () in
  if submit t ~scoring ~k ~deadline query (Pj_util.Ivar.fill result) then
    `Done (Pj_util.Ivar.read result)
  else `Busy

let shutdown t =
  Work_queue.close t.queue;
  Mutex.lock t.m;
  t.stopping <- true;
  Condition.broadcast t.c;
  Mutex.unlock t.m;
  (match t.supervisor with
  | Some th ->
      Thread.join th;
      t.supervisor <- None
  | None -> ());
  (* Every remaining slot holds a terminated domain (the supervisor
     only returns once live = 0); join reclaims them. *)
  Array.iteri
    (fun slot d ->
      match d with
      | Some d ->
          Domain.join d;
          t.workers.(slot) <- None
      | None -> ())
    t.workers
