(* The benchmark's settings. The offered rates and the latency limits
   are arguments fixed in BENCHMARK.json's [command], so they are chosen
   once and never re-derived from a capacity probe at run time; the
   caller appends [--workload], [--seed], [--seconds] and [--trace]. *)

type t = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  rates : float list;  (** query_* rate ladder, ascending, req/s *)
  ref_rate : float;  (** the ladder rung whose latency is reported *)
  slo_ms : float;  (** query_* p99 latency limit *)
  ingest_slo_ms : float;  (** ingest_mixed p99 limit, ADDDOC acks and SEARCH *)
  add_rate : float;  (** ingest_mixed ADDDOC rate *)
  mixed_search_rate : float;  (** ingest_mixed SEARCH rate *)
  proxjoin : string;  (** the built proxjoin executable *)
}

(* The measured workloads, exactly those BENCHMARK.json lists. *)
let workloads = [ "query_mono"; "query_routed" ]

(* Run by hand only, never by BENCHMARK.json. ingest_mixed works, but
   on a shared host its figures spread too widely to gate a change
   (README.md, "Steadiness"). defect_probes probes the known program
   defects the measured workloads steer around (README.md, "Known
   defects"); it exits 1 while a defect reproduces. *)
let ingest_workload = "ingest_mixed"
let probe_workload = "defect_probes"
let by_hand = [ ingest_workload; probe_workload ]

(* Sizes and server settings, fixed here and printed in every run
   header. The corpus is small enough that three set-ups stay a minor
   part of a 35 s run (see README.md, "Sizing"). *)
let docs = 4000  (* query_* corpus *)
let seed_docs = 500  (* ingest_mixed initial corpus *)
let pool = 16000  (* distinct SEARCH lines *)
let domains = 1  (* worker domains of the query_mono server *)
let backend_domains = 1  (* of each query_routed backend *)
let live_domains = 1  (* of the ingest_mixed server *)
let memtable = 64  (* ingest_mixed: auto-flush at this many documents *)
(* Set-ups per run; setup_s is their median. An ingest set-up takes
   about 0.5 s, mostly process start, so it is repeated more often. *)
let setup_reps = 3
let live_setup_reps = 7
let setup_reps_of workload = if workload = ingest_workload then live_setup_reps else setup_reps
let saturate_count = 12000  (* requests of the query_* top rung *)
let ingest_saturate_count = 10000  (* SEARCH requests of the ingest_mixed saturating burst *)

let slo_ms t = if t.workload = ingest_workload then t.ingest_slo_ms else t.slo_ms

let floats s =
  String.split_on_char ',' s
  |> List.map (fun x ->
         match float_of_string_opt (String.trim x) with
         | Some f when f > 0. -> f
         | _ -> failwith (Printf.sprintf "bad rate %S" x))

let parse argv =
  let tbl = Hashtbl.create 16 in
  let rec go = function
    | key :: value :: rest
      when String.length key > 2 && String.sub key 0 2 = "--" ->
        let k = String.sub key 2 (String.length key - 2) in
        if Hashtbl.mem tbl k then failwith ("repeated option --" ^ k);
        Hashtbl.replace tbl k value;
        go rest
    | [] -> ()
    | x :: _ -> failwith (Printf.sprintf "unexpected argument %S" x)
  in
  try
    go argv;
    let get k =
      match Hashtbl.find_opt tbl k with
      | Some v ->
          Hashtbl.remove tbl k;
          v
      | None -> failwith ("missing --" ^ k)
    in
    let int k =
      match int_of_string_opt (get k) with
      | Some i when i >= 0 -> i
      | _ -> failwith ("--" ^ k ^ " wants a non-negative integer")
    in
    let pos k =
      match float_of_string_opt (get k) with
      | Some f when f > 0. -> f
      | _ -> failwith ("--" ^ k ^ " wants a positive number")
    in
    let workload = get "workload" in
    if not (List.mem workload (workloads @ by_hand)) then
      failwith
        (Printf.sprintf "unknown workload %S (want one of %s)" workload
           (String.concat ", " (workloads @ by_hand)));
    let trace =
      match get "trace" with
      | "0" -> false
      | "1" -> true
      | _ -> failwith "--trace wants 0 or 1"
    in
    let rates = floats (get "rates") in
    if List.sort compare rates <> rates then failwith "--rates must ascend";
    let t =
      {
        workload;
        seed = int "seed";
        seconds = pos "seconds";
        trace;
        rates;
        ref_rate = pos "ref-rate";
        slo_ms = pos "slo-ms";
        ingest_slo_ms = pos "ingest-slo-ms";
        add_rate = pos "add-rate";
        mixed_search_rate = pos "mixed-search-rate";
        proxjoin = get "proxjoin";
      }
    in
    if not (List.mem t.ref_rate t.rates) then
      failwith "--ref-rate must be one of --rates";
    (match Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] with
    | [] -> ()
    | extra -> failwith ("unknown option --" ^ String.concat ", --" extra));
    Ok t
  with Failure msg -> Error msg
