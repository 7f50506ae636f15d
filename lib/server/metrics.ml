type value = Int of int | Ms of float | Seconds of float | Text of string
type stat = Mean | Percentile of float | Max
type counter = int Atomic.t
type total = { mutable members : int list }
type histogram = { m : Mutex.t; h : Pj_util.Histogram.t }

(* A counter renders from its slot of the render's frame; a total sums
   its members' slots of the same frame; everything else reads its own
   source once per render. *)
type entry =
  | Counter of string * int
  | Total of string * total
  | Read of (Buffer.t -> unit)

type t = {
  mutable cells : counter list;  (* newest first *)
  mutable entries : entry list;  (* newest first *)
}

let create () = { cells = []; entries = [] }
let push t e = t.entries <- e :: t.entries

let put buf key v =
  Buffer.add_char buf ' ';
  Buffer.add_string buf key;
  Buffer.add_char buf '=';
  match v with
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Ms x -> Printf.bprintf buf "%.3f" x
  | Seconds x -> Printf.bprintf buf "%.1f" x
  | Text s -> Buffer.add_string buf s

let total t key =
  let tot = { members = [] } in
  push t (Total (key, tot));
  tot

let counter ?(into = []) t key =
  let c = Atomic.make 0 in
  let slot = List.length t.cells in
  t.cells <- c :: t.cells;
  List.iter (fun tot -> tot.members <- slot :: tot.members) into;
  push t (Counter (key, slot));
  c

let incr = Atomic.incr
let add c n = ignore (Atomic.fetch_and_add c n)

let group t read fields =
  push t
    (Read
       (fun buf ->
         let s = read () in
         List.iter (fun (key, f) -> put buf key (f s)) fields))

let gauge t key read = group t read [ (key, Fun.id) ]

let histogram t stats =
  let hist = { m = Mutex.create (); h = Pj_util.Histogram.create () } in
  let value = function
    | Mean -> Pj_util.Histogram.mean hist.h
    | Percentile p -> Pj_util.Histogram.percentile hist.h p
    | Max -> Pj_util.Histogram.max_value hist.h
  in
  push t
    (Read
       (fun buf ->
         Mutex.lock hist.m;
         let vs = List.map (fun (key, s) -> (key, 1000. *. value s)) stats in
         Mutex.unlock hist.m;
         List.iter (fun (key, ms) -> put buf key (Ms ms)) vs));
  hist

let observe hist seconds =
  Mutex.lock hist.m;
  Pj_util.Histogram.observe hist.h seconds;
  Mutex.unlock hist.m

let render t =
  (* Every counter is read once, before anything renders, so a total
     and its members come from the same values. *)
  let frame = Array.of_list (List.rev_map Atomic.get t.cells) in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "STATS";
  List.iter
    (function
      | Counter (key, slot) -> put buf key (Int frame.(slot))
      | Total (key, tot) ->
          put buf key
            (Int (List.fold_left (fun acc s -> acc + frame.(s)) 0 tot.members))
      | Read f -> f buf)
    (List.rev t.entries);
  Buffer.contents buf

let field line key =
  let needle = " " ^ key ^ "=" in
  let nl = String.length needle and ll = String.length line in
  let rec find i =
    if i + nl > ll then None
    else if String.sub line i nl = needle then begin
      let s = i + nl in
      let e = ref s in
      while !e < ll && line.[!e] <> ' ' do
        Stdlib.incr e
      done;
      Some (String.sub line s (!e - s))
    end
    else find (i + 1)
  in
  find 0

let int_field line key = Option.bind (field line key) int_of_string_opt
