(* In-memory spans recorded by the benchmark around each call it makes
   into a layer's public function. Spans of one request share its
   request id; [parent] is the id of the span that caused this one
   (-1 for a request's root). Recording appends to a growable buffer
   and reads the monotonic clock twice; nothing is written until
   [write] at the end of the run. Not thread-safe: record from one
   thread, or finish spans from other domains with [add]. *)

type span = {
  id : int;
  parent : int;
  name : string;
  request : int;
  start : float;
  stop : float;
}

type t = { mutable spans : span array; mutable len : int; lock : Mutex.t }

let create () =
  {
    spans =
      Array.make 1024
        { id = 0; parent = -1; name = ""; request = 0; start = 0.; stop = 0. };
    len = 0;
    lock = Mutex.create ();
  }

let add t ~parent ~name ~request ~start ~stop =
  Mutex.lock t.lock;
  if t.len = Array.length t.spans then begin
    let bigger = Array.make (2 * t.len) t.spans.(0) in
    Array.blit t.spans 0 bigger 0 t.len;
    t.spans <- bigger
  end;
  let id = t.len in
  t.spans.(id) <- { id; parent; name; request; start; stop };
  t.len <- t.len + 1;
  Mutex.unlock t.lock;
  id

(* A span whose children are recorded while it is open: the root id is
   reserved up front and its stop time patched on close. *)
let open_span t ~parent ~name ~request =
  add t ~parent ~name ~request ~start:(Pj_util.Timing.monotonic_now ())
    ~stop:Float.nan

let close_span t id =
  Mutex.lock t.lock;
  t.spans.(id) <- { (t.spans.(id)) with stop = Pj_util.Timing.monotonic_now () };
  Mutex.unlock t.lock

let with_span t ~parent ~name ~request f =
  let start = Pj_util.Timing.monotonic_now () in
  let r = f () in
  let stop = Pj_util.Timing.monotonic_now () in
  ignore (add t ~parent ~name ~request ~start ~stop);
  r

let spans t = Array.sub t.spans 0 t.len
let duration s = s.stop -. s.start

(* Total length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, _ =
    List.fold_left
      (fun (total, reach) (a, b) ->
        if b <= reach then (total, reach)
        else (total +. b -. Float.max a reach, b))
      (0., Float.neg_infinity) clipped
  in
  total

let children spans =
  let kids = Hashtbl.create (Array.length spans) in
  Array.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add kids s.parent (s.start, s.stop))
    spans;
  fun id -> Hashtbl.find_all kids id

(* Self time: a span's duration minus the part of its interval that its
   child spans cover (overlapping children count once). *)
let self_times spans =
  let kids = children spans in
  Array.map
    (fun s -> (s, duration s -. covered ~lo:s.start ~hi:s.stop (kids s.id)))
    spans

(* Share of root-span time ([name]) that child spans account for. *)
let coverage spans ~root =
  let kids = children spans in
  let total = ref 0. and cov = ref 0. in
  Array.iter
    (fun s ->
      if s.parent < 0 && s.name = root then begin
        total := !total +. duration s;
        cov := !cov +. covered ~lo:s.start ~hi:s.stop (kids s.id)
      end)
    spans;
  if !total > 0. then !cov /. !total else 0.

let write t path =
  let oc = open_out path in
  output_string oc "id\tparent\trequest\tname\tstart_s\tstop_s\n";
  Array.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%.9f\t%.9f\n" s.id s.parent s.request
        s.name s.start s.stop)
    (spans t);
  close_out oc
