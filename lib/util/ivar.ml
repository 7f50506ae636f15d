type 'a t = { m : Mutex.t; c : Condition.t; mutable v : 'a option }

let create () = { m = Mutex.create (); c = Condition.create (); v = None }

let fill t x =
  Mutex.lock t.m;
  if Option.is_none t.v then begin
    t.v <- Some x;
    Condition.broadcast t.c
  end;
  Mutex.unlock t.m

let read t =
  Mutex.lock t.m;
  while Option.is_none t.v do
    Condition.wait t.c t.m
  done;
  let x = Option.get t.v in
  Mutex.unlock t.m;
  x
