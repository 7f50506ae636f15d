type t = {
  lru : (string, string) Pj_util.Lru.t;
  mutex : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable generation : int;
}

let create ~capacity =
  {
    lru = Pj_util.Lru.create ~capacity;
    mutex = Mutex.create ();
    hits = 0;
    misses = 0;
    generation = 0;
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Generation-aware keys: entries cached under an older index
   generation can never be found again after a bump — a stale
   pre-ingest response is structurally unreachable, with no costly
   clear-on-swap sweep. Superseded entries age out of the LRU on
   their own. Caller must hold the lock. *)
let versioned t key =
  if t.generation = 0 then key
  else Printf.sprintf "g%d|%s" t.generation key

let lookup t key =
  with_lock t (fun () ->
      match Pj_util.Lru.find t.lru (versioned t key) with
      | Some response ->
          t.hits <- t.hits + 1;
          `Hit response
      | None ->
          t.misses <- t.misses + 1;
          `Miss t.generation)

let find t key =
  match lookup t key with `Hit response -> Some response | `Miss _ -> None

(* Last line of defense, independent of the server's own filtering: a
   response that is not a complete answer (TIMEOUT, OK-DEGRADED, BUSY,
   ERR) describes one request's luck — replaying it to healthy
   clients would be wrong, so such lines are never stored. Nor is a
   response whose lookup ran under an older generation: it may have
   been computed against the superseded index or cluster. *)
let add ?generation t key response =
  if Protocol.cacheable response then
    with_lock t (fun () ->
        match generation with
        | Some g when g <> t.generation -> ()
        | _ -> Pj_util.Lru.add t.lru (versioned t key) response)

let set_generation t gen =
  (* Monotone: concurrent swap notifications may arrive out of order;
     moving backwards would resurrect stale entries. *)
  with_lock t (fun () -> if gen > t.generation then t.generation <- gen)

let generation t = with_lock t (fun () -> t.generation)

let stats t =
  with_lock t (fun () -> (t.hits, t.misses, Pj_util.Lru.length t.lru))

let clear t =
  with_lock t (fun () ->
      Pj_util.Lru.clear t.lru;
      t.hits <- 0;
      t.misses <- 0)
