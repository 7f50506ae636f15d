(* Tests of the benchmark's own arithmetic: the percentile/sample-count
   rule, due-time schedules, span self time and coverage, and the
   validation of BENCHMARK.json. *)

open Perfbench_kit

let close = Alcotest.(check (float 1e-9))

(* --- percentile rule --- *)

let test_beyond () =
  Alcotest.(check int) "p99 of 1000" 10 (Tail.beyond ~n:1000 99.);
  Alcotest.(check int) "p99 of 999" 9 (Tail.beyond ~n:999 99.);
  Alcotest.(check int) "p99.9 of 10000" 10 (Tail.beyond ~n:10000 99.9);
  Alcotest.(check bool) "1000 support p99" true (Tail.supported ~n:1000 99.);
  Alcotest.(check bool) "999 do not" false (Tail.supported ~n:999 99.);
  Alcotest.(check bool) "20 support p50" true (Tail.supported ~n:20 50.);
  Alcotest.(check bool) "19 do not" false (Tail.supported ~n:19 50.)

let test_tail_values () =
  let a = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  let t = Tail.of_samples a 99. in
  Alcotest.(check bool) "1000 samples support p99" true (Tail.valid t);
  Alcotest.(check int) "n" 1000 t.Tail.n;
  close "value is Stats.percentile" (Pj_util.Stats.percentile a 99.) t.Tail.value;
  let short = Tail.of_samples (Array.sub a 0 999) 99. in
  Alcotest.(check bool) "999 samples do not" false (Tail.valid short);
  Alcotest.(check bool) "empty" false (Tail.valid (Tail.of_samples [||] 50.))

let test_block_median () =
  (* 5000 samples: a quiet 1..1000 ramp five times, except that the
     second block runs ten times slower. The pooled p99 lands in the
     slow block; the median over five blocks does not. *)
  let a = Array.init 5000 (fun i -> float_of_int ((i mod 1000) + 1) *. if i / 1000 = 1 then 10. else 1.) in
  let t = Tail.block_median a 99. in
  close "median of the blocks' p99" (Pj_util.Stats.percentile (Array.sub a 0 1000) 99.) t.Tail.value;
  Alcotest.(check int) "n" 5000 t.Tail.n;
  Alcotest.(check bool) "each block supports p99" true (Tail.valid t);
  if (Tail.of_samples a 99.).Tail.value <= t.Tail.value then Alcotest.fail "pooled p99 should be larger";
  (* 3000 samples make three blocks of 1000; 999 make one block. *)
  Alcotest.(check int) "three blocks" 3000 (Tail.block_median (Array.make 3000 1.) 99.).Tail.n;
  let one = Tail.block_median (Array.sub a 0 999) 99. in
  close "one block is the pooled value" (Tail.of_samples (Array.sub a 0 999) 99.).Tail.value one.Tail.value;
  Alcotest.(check bool) "999 do not support p99" false (Tail.valid one)

(* --- schedules --- *)

let test_poisson () =
  let s1 = Schedule.poisson (Pj_util.Prng.create 7) ~rate:200. ~count:20_000 in
  let s2 = Schedule.poisson (Pj_util.Prng.create 7) ~rate:200. ~count:20_000 in
  Alcotest.(check bool) "same seed, same schedule" true (s1 = s2);
  let s3 = Schedule.poisson (Pj_util.Prng.create 8) ~rate:200. ~count:20_000 in
  Alcotest.(check bool) "other seed differs" false (s1 = s3);
  Array.iteri
    (fun i t -> if i > 0 && t < s1.(i - 1) then Alcotest.fail "due times must not decrease")
    s1;
  (* 20k arrivals at 200/s span ~100 s; the mean gap is 1/rate. *)
  let span = s1.(19_999) in
  if span < 97. || span > 103. then Alcotest.failf "span %g s, want ~100 s" span

let test_rung_counts () =
  (* 1100/300 + 2400/1200 = 5.67 s for the other rungs; the reference
     rung at 150/s fills the remaining 19.33 s. *)
  Alcotest.(check (list int)) "ladder" [ 2900; 1100; 2400 ]
    (Schedule.rung_counts ~seconds:25. ~rates:[ 150.; 300.; 1200. ] ~ref_rate:150.
       ~min_count:1100 ~top_count:2400);
  Alcotest.(check (list int)) "too short: every rung keeps its minimum" [ 1100; 2000 ]
    (Schedule.rung_counts ~seconds:1. ~rates:[ 150.; 300. ] ~ref_rate:150. ~min_count:1100
       ~top_count:2000)

let test_backlogged_throughput () =
  (* 1000 completions 5 ms apart: 200/s, whatever the order given. *)
  let even = Array.init 1000 (fun i -> 3. +. (float_of_int (999 - i) *. 0.005)) in
  close "even" 200. (Schedule.backlogged_throughput even);
  (* A slow ramp-up and slow stragglers (the first and last 5%) do not
     move it. *)
  let ramped =
    Array.init 1000 (fun i ->
        if i < 50 then float_of_int i
        else if i >= 950 then 1000. +. float_of_int i
        else 50. +. (float_of_int (i - 50) *. 0.005))
  in
  close "ramped" 200. (Schedule.backlogged_throughput ramped);
  (* A 2 s stall inside one decile window lowers that window only. *)
  let stalled = Array.init 1000 (fun i -> (float_of_int i *. 0.005) +. if i >= 500 then 2. else 0.) in
  close "stalled" 200. (Schedule.backlogged_throughput stalled);
  Alcotest.(check bool) "too few" true (Float.is_nan (Schedule.backlogged_throughput [| 1.; 2. |]))

let test_merge () =
  let m = Schedule.merge [| 0.1; 0.3 |] [| 0.2; 0.4; 0.5 |] in
  Alcotest.(check (list (float 0.))) "times" [ 0.1; 0.2; 0.3; 0.4; 0.5 ]
    (Array.to_list (Array.map fst m));
  Alcotest.(check bool) "tags" true
    (Array.map snd m = [| `A 0; `B 0; `A 1; `B 1; `B 2 |])

let test_backlog () =
  let flat = Array.make 100 3 in
  close "flat" 0. (Schedule.backlog_growth flat);
  Alcotest.(check bool) "flat does not grow" false
    (Schedule.backlog_grows ~rate:100. ~limit_s:0.05 flat);
  let rising = Array.init 100 Fun.id in
  Alcotest.(check bool) "rising grows" true
    (Schedule.backlog_grows ~rate:100. ~limit_s:0.05 rising)

(* --- self time --- *)

let spans_of l =
  let t = Trace.create () in
  List.iter
    (fun (parent, name, start, stop) -> ignore (Trace.add t ~parent ~name ~request:0 ~start ~stop))
    l;
  Trace.spans t

let self_of spans name =
  Array.fold_left
    (fun acc (s, self) -> if s.Trace.name = name then acc +. self else acc)
    0. (Trace.self_times spans)

let test_self_time () =
  (* root [0,10]; children [1,3] and [2,6] overlap (covering [1,6]);
     a grandchild [4,5] under the second child. *)
  let spans =
    spans_of
      [ (-1, "root", 0., 10.); (0, "a", 1., 3.); (0, "b", 2., 6.); (2, "c", 4., 5.) ]
  in
  close "root self" 5. (self_of spans "root");
  close "a self" 2. (self_of spans "a");
  close "b self" 3. (self_of spans "b");
  close "leaf self" 1. (self_of spans "c");
  close "coverage" 0.5 (Trace.coverage spans ~root:"root")

let test_self_time_clipped () =
  (* A child running past its parent only covers the parent's part. *)
  let spans = spans_of [ (-1, "root", 0., 4.); (0, "late", 3., 9.) ] in
  close "root self" 3. (self_of spans "root");
  close "coverage" 0.25 (Trace.coverage spans ~root:"root")

(* --- BENCHMARK.json --- *)

let benchmark_json = "../../BENCHMARK.json"

let test_repo_benchmark () =
  match Contract.validate_file benchmark_json with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let valid_doc () =
  match Json.parse (read_file benchmark_json) with
  | Json.Obj kv -> kv
  | _ -> Alcotest.fail "not an object"

let rejects what kv =
  match Contract.validate (Json.Obj kv) with
  | Ok () -> Alcotest.failf "accepted %s" what
  | Error _ -> ()

let replace k v kv = List.map (fun (k', v') -> if k' = k then (k', v) else (k', v')) kv

let test_rejections () =
  let kv = valid_doc () in
  rejects "an extra key" (("extra", Json.Null) :: kv);
  rejects "run_seconds 61" (replace "run_seconds" (Json.Num 61.) kv);
  rejects "an absolute path" (replace "paths" (Json.Arr [ Json.Str "/tmp" ]) kv);
  rejects "a path out of the repo" (replace "paths" (Json.Arr [ Json.Str "a/../.." ]) kv);
  let e2e = match List.assoc "end_to_end" kv with Json.Arr l -> l | _ -> [] in
  let without_setup =
    List.filter (fun m -> Json.member "name" m <> Some (Json.Str "setup_s")) e2e
  in
  rejects "no setup_s" (replace "end_to_end" (Json.Arr without_setup) kv);
  let loose =
    List.map
      (function
        | Json.Obj m -> Json.Obj (replace "bound" (Json.Num 0.5) m) | other -> other)
      e2e
  in
  rejects "a bound above 0.25" (replace "end_to_end" (Json.Arr loose) kv);
  rejects "a duplicate metric" (replace "end_to_end" (Json.Arr (e2e @ [ List.hd e2e ])) kv);
  let cmd = match List.assoc "command" kv with Json.Arr l -> l | _ -> [] in
  rejects "a command without constants"
    (replace "command" (Json.Arr (List.filteri (fun i _ -> i < 2) cmd)) kv)

let test_json_roundtrip () =
  let v = Json.parse {|{"a": [1, 2.5, "x\"y"], "b": {"c": true, "d": null}}|} in
  Alcotest.(check string) "print" {|{"a": [1, 2.5, "x\"y"], "b": {"c": true, "d": null}}|}
    (Json.to_string v);
  Alcotest.(check string) "all digits" "0.10000000000000001" (Json.to_string (Json.Num 0.1))

let () =
  Alcotest.run "perfbench"
    [
      ( "tail",
        [
          Alcotest.test_case "beyond" `Quick test_beyond;
          Alcotest.test_case "values" `Quick test_tail_values;
          Alcotest.test_case "block median" `Quick test_block_median;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "poisson" `Quick test_poisson;
          Alcotest.test_case "rung counts" `Quick test_rung_counts;
          Alcotest.test_case "backlogged throughput" `Quick test_backlogged_throughput;
          Alcotest.test_case "merge" `Quick test_merge;
          Alcotest.test_case "backlog" `Quick test_backlog;
        ] );
      ( "trace",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "clipped" `Quick test_self_time_clipped;
        ] );
      ( "benchmark.json",
        [
          Alcotest.test_case "repo file" `Quick test_repo_benchmark;
          Alcotest.test_case "rejections" `Quick test_rejections;
          Alcotest.test_case "json" `Quick test_json_roundtrip;
        ] );
    ]
