open Pj_util

let test_time_returns_result () =
  let r, dt = Timing.time (fun () -> 21 * 2) in
  Alcotest.(check int) "result" 42 r;
  Alcotest.(check bool) "non-negative" true (dt >= 0.)

let test_measure () =
  let m = Timing.measure ~repetitions:5 (fun () -> ignore (Sys.opaque_identity (Array.make 100 0))) in
  Alcotest.(check int) "repetitions" 5 m.Timing.repetitions;
  Alcotest.(check bool) "mean non-negative" true (m.Timing.mean_s >= 0.);
  Alcotest.(check bool) "cov non-negative" true (m.Timing.cov >= 0.)

let test_pp () =
  let m = Timing.measure ~repetitions:2 (fun () -> ()) in
  let s = Format.asprintf "%a" Timing.pp_measurement m in
  Alcotest.(check bool) "renders" true (String.length s > 0)

(* The deadline clock sits on the search hot path: reading it must not
   allocate (an unboxed [noalloc] external, not a boxed float per call),
   and it must never run backwards. *)
let test_monotonic_now_noalloc () =
  let prev = ref (Timing.monotonic_now ()) and ok = ref true in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    let t = Timing.monotonic_now () in
    if t < !prev then ok := false;
    prev := t
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.)) "minor words over 10k calls" 0. words;
  Alcotest.(check bool) "never decreases" true !ok

let suite =
  [
    ("timing: time", `Quick, test_time_returns_result);
    ("timing: measure", `Quick, test_measure);
    ("timing: pp", `Quick, test_pp);
    ("timing: monotonic_now allocates nothing", `Quick,
     test_monotonic_now_noalloc);
  ]
