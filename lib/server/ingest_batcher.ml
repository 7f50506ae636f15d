(* Group commit for ADDDOC: connection readers enqueue their (already
   stemmed) documents; a batch is everything pending when its commit
   starts executing — a single [Live_index.add_batch] run through one
   [Worker_pool.submit_task]. One writer-lock acquisition, one snapshot
   publication (hence one generation bump and one cache invalidation)
   and one queue slot per batch, however many clients are appending.

   No thread leads and none waits: at most one commit is queued or
   running, and its completion (on the worker domain that ran it)
   acknowledges its waiters, then queues the next commit if anything
   arrived meanwhile. The batch is taken when the commit starts, not
   when it is queued, so documents that arrive while it waits behind
   searches in the pool's queue still ride it. Every submission is
   answered after at most one further commit, and the batch size
   adapts to however much arrived while the previous batch was
   committing. *)

type waiter = { stems : string array; reply : string -> unit }

type t = {
  live : Pj_live.Live_index.t;
  pool : Worker_pool.t;
  on_batch : size:int -> unit; (* success observability hook *)
  lock : Mutex.t;
  mutable pending : waiter list; (* newest first; guarded by [lock] *)
  mutable in_flight : bool; (* a commit is queued or running; guarded by [lock] *)
}

let create ~on_batch pool live =
  { live; pool; on_batch; lock = Mutex.create (); pending = []; in_flight = false }

let take_pending t =
  Mutex.lock t.lock;
  let batch = List.rev t.pending in
  t.pending <- [];
  Mutex.unlock t.lock;
  batch

(* Queue one commit. The task takes its batch and assigns dense ids for
   all of it; each waiter is acknowledged with its own. [batch] and
   [first] are written by the task and read by its completion, which
   runs after it on the same worker. A commit that never ran (refused,
   or its worker panicked before the task started) answers whatever is
   pending instead: that is the batch it would have taken. *)
let rec commit t =
  let batch = ref None and first = ref (-1) in
  let task () =
    let docs = take_pending t in
    batch := Some docs;
    first := Pj_live.Live_index.add_batch t.live (List.map (fun w -> w.stems) docs);
    ""
  in
  let taken () = match !batch with Some docs -> docs | None -> take_pending t in
  let accepted =
    Worker_pool.submit_task t.pool task (fun r ->
        let docs = taken () in
        let line =
          match r with
          | Ok _ -> begin
              (* A failing hook must not strand the batch's waiters. *)
              match t.on_batch ~size:(List.length docs) with
              | () -> fun i -> Protocol.added (!first + i)
              | exception e ->
                  let line = Protocol.err (Printexc.to_string e) in
                  fun _ -> line
            end
          | Error msg ->
              let line = Protocol.err msg in
              fun _ -> line
        in
        finish t docs line)
  in
  if not accepted then finish t (taken ()) (fun _ -> Protocol.busy)

(* Acknowledge [docs], then queue the next commit if more arrived — or
   go idle. No lock is held for either. *)
and finish t docs line =
  List.iteri (fun i w -> w.reply (line i)) docs;
  Mutex.lock t.lock;
  let more = t.pending <> [] in
  t.in_flight <- more;
  Mutex.unlock t.lock;
  if more then commit t

let enqueue t stems reply =
  Mutex.lock t.lock;
  t.pending <- { stems; reply } :: t.pending;
  let start = not t.in_flight in
  t.in_flight <- true;
  Mutex.unlock t.lock;
  if start then commit t

let submit t stems =
  let ack = Pj_util.Ivar.create () in
  enqueue t stems (Pj_util.Ivar.fill ack);
  Pj_util.Ivar.read ack
