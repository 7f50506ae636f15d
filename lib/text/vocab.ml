type t = {
  lock : Mutex.t;
  ids : (string, int) Hashtbl.t;
  words : string Pj_util.Vec.t;
}

let create () =
  {
    lock = Mutex.create ();
    ids = Hashtbl.create 1024;
    words = Pj_util.Vec.create ();
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Callers hold [t.lock]. *)
let intern_locked t w =
  match Hashtbl.find_opt t.ids w with
  | Some id -> id
  | None ->
      let id = Pj_util.Vec.length t.words in
      Hashtbl.add t.ids w id;
      Pj_util.Vec.push t.words w;
      id

let intern t w = with_lock t (fun () -> intern_locked t w)

let find t w = with_lock t (fun () -> Hashtbl.find_opt t.ids w)

let word t id =
  with_lock t (fun () ->
      if id < 0 || id >= Pj_util.Vec.length t.words then
        invalid_arg "Vocab.word: unknown id";
      Pj_util.Vec.get t.words id)

let size t = with_lock t (fun () -> Pj_util.Vec.length t.words)

(* One lock round trip per array, not per word: interning a whole
   document is one critical section. *)
let intern_all t ws = with_lock t (fun () -> Array.map (intern_locked t) ws)
