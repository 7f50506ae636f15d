(* Algorithm registry and timing helpers shared by the figure benches.

   Following Section VIII: the proposed algorithms run with the Section
   VI duplicate-handling wrapper; the naive baselines enumerate the
   cross product and keep the best valid matchset. We measure the
   wall-clock time to process a whole document batch, excluding
   match-list generation, and repeat runs to report dispersion. *)

open Pj_core

type algorithm = {
  name : string;
  solve : Match_list.problem -> Naive.result option;
}

(* The exponential scoring family used by the synthetic experiments:
   Eq. (1), Eq. (3) and Eq. (5). The paper does not state its decay
   rate; alpha = 0.01 is calibrated so that the duplicate-handler rerun
   counts at lambda = 1.0 reproduce the paper's reported "10 to 12 on
   average" (see ablation A10 for the alpha sweep). *)
let alpha = 0.01
let win_scoring = Scoring.win_exponential ~alpha
let med_scoring = Scoring.med_exponential ~alpha
let max_scoring = Scoring.max_sum ~alpha

let with_dedup solver p = fst (Dedup.best_valid solver p)

let fast_algorithms ?(win = win_scoring) ?(med = med_scoring)
    ?(max = max_scoring) () =
  [
    { name = "WIN"; solve = with_dedup (Win.best win) };
    { name = "MED"; solve = with_dedup (Med.best med) };
    { name = "MAX"; solve = with_dedup (Max_join.best max) };
  ]

let naive_algorithms ?(win = win_scoring) ?(med = med_scoring)
    ?(max = max_scoring) () =
  [
    { name = "NWIN"; solve = Naive.best_valid (Scoring.Win win) };
    { name = "NMED"; solve = Naive.best_valid (Scoring.Med med) };
    { name = "NMAX"; solve = Naive.best_valid (Scoring.Max max) };
  ]

let all_algorithms ?win ?med ?max () =
  fast_algorithms ?win ?med ?max () @ naive_algorithms ?win ?med ?max ()

(* Wall-clock seconds to solve every problem in the batch once. *)
let time_batch algorithm problems ~repetitions =
  let run () =
    Array.iter (fun p -> ignore (Sys.opaque_identity (algorithm.solve p))) problems
  in
  Pj_util.Timing.measure ~repetitions run

(* --- table printing --------------------------------------------------- *)

(* Tables go to stdout and, when --csv DIR is given, to one CSV file per
   table (named from a slug of the title). *)
let csv_dir : string option ref = ref None
let csv_channel : out_channel option ref = ref None

let close_csv () =
  match !csv_channel with
  | Some oc ->
      close_out oc;
      csv_channel := None
  | None -> ()

let set_csv_dir dir =
  close_csv ();
  csv_dir := dir

let slug_of_title title =
  String.map
    (fun c ->
      if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') then c
      else if c >= 'A' && c <= 'Z' then Char.lowercase_ascii c
      else '_')
    (String.concat "" (String.split_on_char ' ' (List.hd (String.split_on_char ':' title))))

let csv_escape cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let csv_line cells =
  match !csv_channel with
  | None -> ()
  | Some oc ->
      output_string oc (String.concat "," (List.map csv_escape cells));
      output_char oc '\n'

let print_header title columns =
  Printf.printf "\n== %s ==\n" title;
  Printf.printf "%-10s" "x";
  List.iter (fun c -> Printf.printf " %12s" c) columns;
  print_newline ();
  Printf.printf "%s\n" (String.make (10 + (13 * List.length columns)) '-');
  (match !csv_dir with
  | None -> ()
  | Some dir ->
      close_csv ();
      let path = Filename.concat dir (slug_of_title title ^ ".csv") in
      csv_channel := Some (open_out path));
  csv_line ("x" :: columns)

let print_row label cells =
  Printf.printf "%-10s" label;
  List.iter (fun c -> Printf.printf " %12s" c) cells;
  print_newline ();
  csv_line (label :: cells)

let seconds s = Printf.sprintf "%.4f" s

(* Track the coefficients of variation across all timed points, to
   report the dispersion figure the paper quotes (5.7% average). *)
let cov_log : float list ref = ref []

let log_cov (m : Pj_util.Timing.measurement) =
  cov_log := m.Pj_util.Timing.cov :: !cov_log;
  m

let report_cov_summary () =
  match !cov_log with
  | [] -> ()
  | covs ->
      let a = Array.of_list covs in
      Printf.printf
        "\n[timing dispersion] mean coefficient of variation over %d points: %.1f%% (max %.1f%%)\n"
        (Array.length a)
        (100. *. Pj_util.Stats.mean a)
        (100. *. snd (Pj_util.Stats.min_max a))

(* --- the bench kit: what every BENCH_*.json producer shares ----------- *)

(* The query, scoring and k every synthetic-corpus search runs (topk,
   ingest, storage, failpoint): three terms, each a full-score form and
   a dense degraded one, matching the forms [gen_doc] plants. *)
let query =
  Pj_matching.Query.make "bench"
    [
      Pj_matching.Matcher.of_table ~name:"t1" [ ("alpha", 1.0); ("alfa", 0.35) ];
      Pj_matching.Matcher.of_table ~name:"t2" [ ("bravo", 0.9); ("brav", 0.3) ];
      Pj_matching.Matcher.of_table ~name:"t3"
        [ ("charlie", 0.8); ("charli", 0.25) ];
    ]

let scoring = Scoring.Win (Scoring.win_exponential ~alpha:0.1)
let k = 10

(* One document of [min_len] to [min_len + len_span - 1] filler tokens
   plus planted forms. The weak forms are dense, so almost every
   document is a conjunctive candidate; a strong document carries one
   tight run of the full-score forms, clearing the weak ceiling
   (0.35 + 0.3 + 0.25 = 0.9) by a wide margin. [spike] additionally
   repeats a weak form many times — term-frequency spikes that no form
   score sees. The order of the random draws is part of every recorded
   BENCH figure: change it and the corpora change. *)
let gen_doc rng ~min_len ~len_span ~strong ~spike =
  let len = min_len + Pj_util.Prng.int rng len_span in
  let tokens =
    Array.init len (fun _ -> Pj_workload.Textgen.random_filler rng)
  in
  let plant form p =
    if Pj_util.Prng.float rng 1. < p then begin
      let n = 1 + Pj_util.Prng.int rng 3 in
      for _ = 1 to n do
        tokens.(Pj_util.Prng.int rng len) <- form
      done
    end
  in
  plant "alfa" 0.9;
  plant "brav" 0.85;
  plant "charli" 0.8;
  if spike then
    for _ = 1 to 12 do
      tokens.(Pj_util.Prng.int rng len) <- "alfa"
    done;
  if strong then begin
    let pos = Pj_util.Prng.int rng (len - 3) in
    tokens.(pos) <- "alpha";
    tokens.(pos + 1) <- "bravo";
    tokens.(pos + 2) <- "charlie"
  end;
  tokens

(* The ingest and failpoint corpus: [n] documents of 80-199 tokens,
   every 25th strong. *)
let gen_docs rng n =
  List.init n (fun i ->
      gen_doc rng ~min_len:80 ~len_span:120 ~strong:(i mod 25 = 0)
        ~spike:false)

(* The cluster bench's corpus: short filler documents with two to four
   of 16 marker words planted, which its SEARCH lines pair up. *)
let markers = Array.init 16 (fun i -> Printf.sprintf "marker%02d" i)

let marker_doc rng =
  let len = 40 + Pj_util.Prng.int rng 40 in
  let tokens =
    Array.init len (fun _ -> Pj_workload.Textgen.random_filler rng)
  in
  let n_plant = 2 + Pj_util.Prng.int rng 3 in
  for _ = 1 to n_plant do
    tokens.(Pj_util.Prng.int rng len) <-
      markers.(Pj_util.Prng.int rng (Array.length markers))
  done;
  tokens

(* Bytes [f] allocates. On OCaml 5.1 [Gc.allocated_bytes] leaves out
   most of what the minor heap took since its last collection (1,000
   ten-float arrays read as 11 KB, not 88 KB), so a short call
   under-reports; [Gc.minor_words] reads the allocation pointer itself.
   Blocks allocated straight into the major heap are added from the
   counters. *)
let allocated_bytes f =
  let _, p0, ma0 = Gc.counters () and w0 = Gc.minor_words () in
  f ();
  let _, p1, ma1 = Gc.counters () and w1 = Gc.minor_words () in
  (w1 -. w0 +. (ma1 -. ma0 -. (p1 -. p0))) *. float_of_int (Sys.word_size / 8)

type point = {
  mean_s : float;
  alloc_bytes : float;
}

(* One warm-up call, [repetitions] timed calls (their CoV joins the
   dispersion summary), then the bytes one more call allocates. *)
let measure ~repetitions f =
  f ();
  let m = log_cov (Pj_util.Timing.measure ~repetitions f) in
  { mean_s = m.Pj_util.Timing.mean_s; alloc_bytes = allocated_bytes f }

let percentile_ms latencies p = 1000. *. Pj_util.Stats.percentile latencies p

(* BENCH_*.json values. A number carries the digits it is written
   with; [Obj] and [Arr] put one member a line, [Row] puts an object on
   one line (CI greps some rows whole). *)
type json =
  | Int of int
  | Num of int * float
  | Obj of (string * json) list
  | Row of (string * json) list
  | Arr of json list

let rec render buf indent = function
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Num (digits, x) -> Printf.bprintf buf "%.*f" digits x
  | Row members ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (key, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          Printf.bprintf buf "\"%s\": " key;
          render buf indent v)
        members;
      Buffer.add_char buf '}'
  | Obj members ->
      block buf indent '{' '}'
        (List.map
           (fun (key, v) () ->
             Printf.bprintf buf "\"%s\": " key;
             render buf (indent + 2) v)
           members)
  | Arr items ->
      block buf indent '[' ']'
        (List.map (fun v () -> render buf (indent + 2) v) items)

(* One member a line, each indented one level past the brackets. *)
and block buf indent opening closing members =
  Buffer.add_char buf opening;
  List.iteri
    (fun i member ->
      Buffer.add_string buf (if i > 0 then ",\n" else "\n");
      Buffer.add_string buf (String.make (indent + 2) ' ');
      member ())
    members;
  Printf.bprintf buf "\n%s%c" (String.make indent ' ') closing

(* Write BENCH_<name>.json and say so. *)
let write_json name json =
  let path = Printf.sprintf "BENCH_%s.json" name in
  let buf = Buffer.create 1024 in
  render buf 0 json;
  Buffer.add_char buf '\n';
  let oc = open_out path in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf "[bench-%s] wrote %s\n" name path
