module Protocol = Pj_server.Protocol
module Server = Pj_server.Server

type spec = { host : string; port : int; base : int option }

let spec_of_string s =
  let parse_hostport hp =
    match String.rindex_opt hp ':' with
    | None -> Error (Printf.sprintf "bad backend %S (want HOST:PORT[@BASE])" s)
    | Some i -> (
        let host = String.sub hp 0 i in
        let port = String.sub hp (i + 1) (String.length hp - i - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 && host <> "" -> Ok (host, p)
        | _ -> Error (Printf.sprintf "bad backend port in %S" s))
  in
  match String.index_opt s '@' with
  | None ->
      Result.map (fun (host, port) -> { host; port; base = None })
        (parse_hostport s)
  | Some i -> (
      let hp = String.sub s 0 i in
      let b = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt b with
      | Some b when b >= 0 ->
          Result.map
            (fun (host, port) -> { host; port; base = Some b })
            (parse_hostport hp)
      | _ -> Error (Printf.sprintf "bad doc-id base in %S (want an int >= 0)" s))

type leg = {
  base : int;
  backends : Backend.t array;  (* primary at 0, replicas after *)
}

type t = {
  legs : leg array;
  retries : int Atomic.t;
  failovers : int Atomic.t;
  epoch : int Atomic.t;
      (* The cluster epoch: bumped on every backend up/down
         transition. *)
  mutable on_epoch : int -> unit;
}

let backend_retries t = Atomic.get t.retries
let failovers t = Atomic.get t.failovers

let close t =
  Array.iter (fun leg -> Array.iter Backend.close leg.backends) t.legs

let create ?(connect_deadline_s = 5.) ~legs () =
  if legs = [] then Error "a router needs at least one --backend"
  else begin
    let all =
      List.map
        (fun ((p : spec), replicas) ->
          ( p,
            Backend.create ~host:p.host ~port:p.port,
            List.map
              (fun (r : spec) -> Backend.create ~host:r.host ~port:r.port)
              replicas ))
        legs
    in
    let close_all () =
      List.iter
        (fun (_, b, rs) ->
          Backend.close b;
          List.iter Backend.close rs)
        all
    in
    (* Doc-id bases: explicit @BASE wins; otherwise accumulate each
       leg's docs= in order. Deriving needs every *predecessor's* doc
       count, so a leg whose successors are all explicit never gets
       asked. A leg's count may come from any of its backends — they
       serve the same slice. *)
    let rec resolve acc_base resolved = function
      | [] -> Ok (List.rev resolved)
      | ((p : spec), primary, replicas) :: rest ->
          let base = match p.base with Some b -> b | None -> acc_base in
          let next_needs_derived =
            List.exists (fun ((s : spec), _, _) -> s.base = None) rest
          in
          let docs =
            if not next_needs_derived then Ok 0
            else begin
              let deadline =
                Pj_util.Timing.monotonic_now () +. connect_deadline_s
              in
              let rec first_ok errs = function
                | [] ->
                    Error
                      (Printf.sprintf "cannot size leg %s: %s"
                         (Backend.name primary)
                         (String.concat "; " (List.rev errs)))
                | b :: bs -> (
                    match Backend.fetch_docs b ~deadline with
                    | Ok n -> Ok n
                    | Error e -> first_ok (e :: errs) bs)
              in
              first_ok [] (primary :: replicas)
            end
          in
          (match docs with
          | Error e -> Error e
          | Ok n ->
              resolve (base + n)
                ({ base; backends = Array.of_list (primary :: replicas) }
                :: resolved)
                rest)
    in
    match resolve 0 [] all with
    | Error e ->
        close_all ();
        Error e
    | Ok legs ->
        let t =
          {
            legs = Array.of_list legs;
            retries = Atomic.make 0;
            failovers = Atomic.make 0;
            epoch = Atomic.make 0;
            on_epoch = ignore;
          }
        in
        let bump _up = t.on_epoch (1 + Atomic.fetch_and_add t.epoch 1) in
        Array.iter
          (fun leg -> Array.iter (fun b -> Backend.on_health b bump) leg.backends)
          t.legs;
        Ok t
  end

(* Re-render the client's (already validated) request for the legs.
   Alpha at exact precision so the leg scores a bit-identical query;
   terms are forwarded as the original specs. Every leg gets the same
   k as the client — the exactness of the merge depends on it. *)
let leg_line (sr : Protocol.search_request) =
  Printf.sprintf "SEARCH %s %.17g %d %s" sr.Protocol.family sr.Protocol.alpha
    sr.Protocol.k
    (String.concat " " sr.Protocol.terms)

(* One leg attempt's verdict over a backend response line. *)
type attempt =
  | Hits of (int * float) list
  | Leg_timeout
  | Leg_failed of string

let classify = function
  | Backend.Timed_out -> Leg_timeout
  | Backend.Down reason -> Leg_failed reason
  | Backend.Line line -> (
      if line = Protocol.timeout then Leg_timeout
      else
        match Protocol.parse_hits line with
        | Ok pairs -> Hits pairs
        | Error _ ->
            (* BUSY, ERR, or a backend that is itself OK-DEGRADED: its
               slice would be silently incomplete, which would turn our
               "exact top-k of survivors" into a lie — fail the leg
               (and let the replica chain try for a complete answer). *)
            Leg_failed ("backend answered: " ^ line))

(* Exact top-k of the survivor set: every leg returned its local top-k
   for the same k, so one sort of the rebased union suffices — the
   searcher's order, score desc then doc id asc. *)
let merge t (sr : Protocol.search_request) outcomes =
  let n = Array.length outcomes in
  let survivors = ref [] and failed = ref [] and timeouts = ref 0 in
  Array.iteri
    (fun i -> function
      | Hits pairs ->
          let base = t.legs.(i).base in
          survivors :=
            List.rev_append
              (List.rev_map (fun (id, score) -> (id + base, score)) pairs)
              !survivors
      | Leg_timeout ->
          incr timeouts;
          failed := i :: !failed
      | Leg_failed _ -> failed := i :: !failed)
    outcomes;
  let failed = List.rev !failed in
  if List.length failed = n && !timeouts = n then Server.Forwarded_timeout
  else begin
    let merged =
      List.sort
        (fun (i1, s1) (i2, s2) ->
          match compare s2 s1 with 0 -> compare i1 i2 | c -> c)
        !survivors
    in
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | x :: tl -> x :: take (k - 1) tl
    in
    let top = take sr.Protocol.k merged in
    if failed = [] then Server.Forwarded_hits top
    else Server.Forwarded_degraded (top, failed)
  end

let scatter t (sr : Protocol.search_request) ~deadline reply =
  let line = leg_line sr in
  let n = Array.length t.legs in
  let outcomes = Array.make n (Leg_failed "unanswered") in
  let remaining = Atomic.make n in
  (* Each leg records its verdict, then counts itself done; the last
     leg to finish merges and answers. The atomic decrement orders every
     leg's write before the merge's reads. *)
  let leg_done i verdict =
    outcomes.(i) <- verdict;
    if Atomic.fetch_and_add remaining (-1) = 1 then reply (merge t sr outcomes)
  in
  (* Failover: a failed attempt walks the replica chain with whatever
     deadline budget remains, from the failed attempt's completion. *)
  let rec attempt i ri =
    Backend.submit t.legs.(i).backends.(ri) ~line ~deadline (fun o ->
        match classify o with
        | Hits _ as hits ->
            if ri > 0 then Atomic.incr t.failovers;
            leg_done i hits
        | failed -> next i (ri + 1) failed)
  and next i ri failed =
    if
      ri >= Array.length t.legs.(i).backends
      || Pj_util.Timing.monotonic_now () >= deadline
    then leg_done i failed
    else begin
      Atomic.incr t.retries;
      match Pj_util.Failpoint.hit "router.retry" with
      | exception Pj_util.Failpoint.Injected site ->
          next i (ri + 1) (Leg_failed (Printf.sprintf "failpoint %s" site))
      | () -> attempt i ri
    end
  in
  (* Scatter: one pipelined submit per leg, no thread spawned and none
     parked. [router.leg.N] can fail the primary attempt pre-submit. *)
  for i = 0 to n - 1 do
    match Pj_util.Failpoint.hit (Printf.sprintf "router.leg.%d" i) with
    | () -> attempt i 0
    | exception Pj_util.Failpoint.Injected site ->
        next i 1 (Leg_failed (Printf.sprintf "failpoint %s" site))
  done

let search t sr ~deadline =
  let result = Pj_util.Ivar.create () in
  scatter t sr ~deadline (Pj_util.Ivar.fill result);
  Pj_util.Ivar.read result

let forward t =
  {
    Server.search = scatter t;
    on_epoch =
      (fun f ->
        t.on_epoch <- f;
        f (Atomic.get t.epoch));
  }

let register_stats t m =
  let module M = Pj_server.Metrics in
  M.gauge m "router_legs" (fun () -> M.Int (Array.length t.legs));
  M.gauge m "backend_retries" (fun () -> M.Int (Atomic.get t.retries));
  M.gauge m "failovers" (fun () -> M.Int (Atomic.get t.failovers));
  Array.iteri
    (fun li leg ->
      Array.iteri
        (fun bi b ->
          let key = Printf.sprintf "backend.%d.%d" li bi in
          M.group m
            (fun () -> Backend.health b)
            [
              (key, fun _ -> M.Text (Backend.name b));
              (key ^ ".up", fun h -> M.Int (if h.Backend.up then 1 else 0));
              (key ^ ".requests", fun h -> M.Int h.Backend.requests);
              (key ^ ".failures", fun h -> M.Int h.Backend.failures);
              (key ^ ".p50_ms", fun h -> M.Ms h.Backend.p50_ms);
              (key ^ ".p99_ms", fun h -> M.Ms h.Backend.p99_ms);
            ])
        leg.backends)
    t.legs
