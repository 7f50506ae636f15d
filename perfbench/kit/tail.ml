(* The percentile rule: a percentile is reported only when at least
   [min_beyond] samples lie beyond it, and always with its sample
   count. Values come from [Pj_util.Stats.percentile] (exact, every
   sample retained). *)

let min_beyond = 10

type t = {
  p : float;  (** the percentile asked for, in [0, 100] *)
  value : float;
  n : int;  (** samples behind the value *)
  beyond : int;  (** samples strictly past the percentile's rank *)
}

let beyond ~n p =
  (* The epsilon absorbs representation error in 100 - p (e.g. p99.9). *)
  int_of_float (Float.floor ((float_of_int n *. (100. -. p) /. 100.) +. 1e-9))

let supported ~n p = beyond ~n p >= min_beyond

let of_samples samples p =
  let n = Array.length samples in
  let value = if n = 0 then Float.nan else Pj_util.Stats.percentile samples p in
  { p; value; n; beyond = beyond ~n p }

let valid t = t.beyond >= min_beyond

let describe t =
  Printf.sprintf "p%g=%.3f (n=%d, %d beyond%s)" t.p t.value t.n t.beyond
    (if valid t then "" else ", UNSUPPORTED")

(* A shared host has slow stretches of a few seconds, from other
   tenants. A percentile over a whole phase takes them in; the median
   over consecutive blocks of it does not, as long as a slow stretch
   covers fewer than half the blocks. [samples] are in due-time order;
   they are cut into as many equal blocks, up to [max_blocks], as leave
   every block supporting [p], and the value is the median of the
   blocks' [p]-th percentiles. [beyond] is the smallest block's count. *)
let block_median ?(max_blocks = 5) samples p =
  let n = Array.length samples in
  let rec fit b = if b <= 1 || supported ~n:(n / b) p then max 1 b else fit (b - 1) in
  let blocks = fit max_blocks in
  let size = n / blocks in
  let per = Array.init blocks (fun b -> of_samples (Array.sub samples (b * size) size) p) in
  {
    p;
    value = (if size = 0 then Float.nan else Pj_util.Stats.median (Array.map (fun t -> t.value) per));
    n = size * blocks;
    beyond = Array.fold_left (fun acc t -> min acc t.beyond) max_int per;
  }
