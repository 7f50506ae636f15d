external monotonic_now : unit -> (float[@unboxed])
  = "pj_monotonic_now_byte" "pj_monotonic_now"
[@@noalloc]

let time f =
  let t0 = monotonic_now () in
  let result = f () in
  (result, monotonic_now () -. t0)

type measurement = {
  mean_s : float;
  stdev_s : float;
  cov : float;
  repetitions : int;
}

let measure ?(repetitions = 3) f =
  assert (repetitions > 0);
  let samples =
    Array.init repetitions (fun _ ->
        let (), dt = time f in
        dt)
  in
  {
    mean_s = Stats.mean samples;
    stdev_s = Stats.stdev samples;
    cov = Stats.coefficient_of_variation samples;
    repetitions;
  }

let pp_measurement ppf m =
  Format.fprintf ppf "%.4fs (cov %.1f%%, n=%d)" m.mean_s (100. *. m.cov)
    m.repetitions
