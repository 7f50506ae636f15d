(* Open-loop arrival schedules. Every request gets a due time fixed in
   advance; latency is charged from the due time, so a stall delays the
   requests queued behind it as it would real users. Arrivals are a
   Poisson process (independent users): exponential gaps drawn from a
   seeded generator, so one seed always yields the same schedule. *)

let poisson rng ~rate ~count =
  if rate <= 0. then invalid_arg "Schedule.poisson: rate must be > 0";
  let t = ref 0. in
  Array.init count (fun _ ->
      let gap = -.log (Pj_util.Prng.float_open rng) /. rate in
      t := !t +. gap;
      !t)

(* Requests per rung of a rate ladder that fills [seconds]: every rung
   but the reference gets [min_count] requests, enough for a valid p99,
   except the top (saturating) rung, which gets [top_count]; the
   reference rung, whose latency is reported, gets the rest of the
   time. The top rung is charged its offered time, so a run lasts
   longer by however long the server takes to drain it. *)
let rung_counts ~seconds ~rates ~ref_rate ~min_count ~top_count =
  let top = List.fold_left Float.max 0. rates in
  let count r = if r = top && r <> ref_rate then top_count else min_count in
  let others =
    List.fold_left
      (fun acc r -> if r = ref_rate then acc else acc +. (float_of_int (count r) /. r))
      0. rates
  in
  let ref_count = int_of_float (Float.floor ((seconds -. others) *. ref_rate)) in
  List.map (fun r -> if r = ref_rate then max min_count ref_count else count r) rates

(* Completions per second while the server is backlogged: given the
   completion times of one saturating rung, the median of the rates
   between consecutive deciles of them, from the 10th to the 90th. The
   range leaves out the ramp-up before the queue fills and the
   stragglers after it empties; the median leaves out a slow stretch of
   the host that covers fewer than half the eight windows. [nan] with
   fewer than 20 completions. *)
let backlogged_throughput done_times =
  let a = Array.copy done_times in
  Array.sort compare a;
  let n = Array.length a in
  if n < 20 then Float.nan
  else
    let at d = d * (n - 1) / 10 in
    let rate d =
      let i = at d and j = at (d + 1) in
      if a.(j) > a.(i) then float_of_int (j - i) /. (a.(j) -. a.(i)) else Float.infinity
    in
    Pj_util.Stats.median (Array.init 8 (fun k -> rate (k + 1)))

(* Two independent Poisson streams merged by due time: [`A i] and
   [`B i] index each stream's own items. *)
let merge a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make (la + lb) (0., `A 0) in
  let i = ref 0 and j = ref 0 in
  for o = 0 to la + lb - 1 do
    if !j >= lb || (!i < la && a.(!i) <= b.(!j)) then begin
      out.(o) <- (a.(!i), `A !i);
      incr i
    end
    else begin
      out.(o) <- (b.(!j), `B !j);
      incr j
    end
  done;
  out

(* Backlog growth over one rung: [outstanding.(i)] is the number of
   requests sent and not yet answered when request [i] was sent. The
   backlog grows when the last quarter of the rung waits behind more
   than half a latency limit's worth of arrivals beyond the first
   quarter — the queue is filling faster than it drains. *)
let backlog_growth outstanding =
  let n = Array.length outstanding in
  if n < 8 then 0.
  else begin
    let q = n / 4 in
    let mean lo len =
      let s = ref 0 in
      for i = lo to lo + len - 1 do
        s := !s + outstanding.(i)
      done;
      float_of_int !s /. float_of_int len
    in
    mean (n - q) q -. mean 0 q
  end

let backlog_grows ~rate ~limit_s outstanding =
  backlog_growth outstanding > Float.max 2. (rate *. limit_s /. 2.)
