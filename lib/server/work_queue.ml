type 'a t = {
  capacity : int;
  items : 'a Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;
  mutable closed : bool;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Work_queue.create: capacity must be >= 1";
  {
    capacity;
    items = Queue.create ();
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    closed = false;
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let try_push t x =
  with_lock t (fun () ->
      if t.closed || Queue.length t.items >= t.capacity then false
      else begin
        Queue.push x t.items;
        Condition.signal t.nonempty;
        true
      end)

let pop t =
  with_lock t (fun () ->
      while Queue.is_empty t.items && not t.closed do
        Condition.wait t.nonempty t.mutex
      done;
      if Queue.is_empty t.items then None
      else Some (Queue.pop t.items))

let close t =
  with_lock t (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)

let length t = with_lock t (fun () -> Queue.length t.items)
