(* bench-daat: the document-at-a-time searcher against the set-based
   candidate generation it replaced.

   The old path (preserved here as the baseline) materialized one
   Set.Make(Int) per query term from every expansion posting before
   intersecting — O(total postings) allocation per query — and ran the
   proximity-free upper-bound prune only after building each
   candidate's match-list problem. The DAAT path leapfrogs posting-list
   cursors and prunes before any materialization. Reported per query:
   wall-clock latency and allocated bytes, for candidate generation
   alone and for the full top-k search; results land in
   BENCH_daat.json. *)

open Pj_workload

module Iset = Set.Make (Int)

(* --- the pre-change searcher, kept as the measured baseline ------------ *)

let old_term_doc_ids idx (m : Pj_matching.Matcher.t) =
  match m.Pj_matching.Matcher.expansions with
  | None -> assert false
  | Some expansions ->
      List.fold_left
        (fun acc (form, _) ->
          let pl = Pj_index.Inverted_index.postings_of_word idx form in
          Pj_index.Posting_list.fold
            (fun acc p -> Iset.add p.Pj_index.Posting.doc_id acc)
            acc pl)
        Iset.empty expansions

let old_candidates idx (q : Pj_matching.Query.t) =
  let sets = Array.map (old_term_doc_ids idx) q.Pj_matching.Query.matchers in
  let smallest =
    Array.fold_left
      (fun acc s -> if Iset.cardinal s < Iset.cardinal acc then s else acc)
      sets.(0) sets
  in
  let all =
    Iset.filter
      (fun doc -> Array.for_all (fun s -> Iset.mem doc s) sets)
      smallest
  in
  Array.of_list (Iset.elements all)

type old_hit = { doc_id : int; score : float }

let old_search ~k idx scoring q =
  let heap =
    Pj_util.Heap.create ~leq:(fun a b ->
        match compare b.score a.score with
        | 0 -> a.doc_id <= b.doc_id
        | c -> c <= 0)
  in
  (* The pre-change prune: fires only after the per-document match
     lists are already built. *)
  let worth_solving ~doc_id problem =
    Pj_util.Heap.length heap < k
    ||
    match Pj_util.Heap.peek heap with
    | None -> true
    | Some weakest ->
        let best_values =
          Array.mapi
            (fun j list ->
              Pj_core.Scoring.g scoring j
                (Array.fold_left
                   (fun acc m -> Float.max acc m.Pj_core.Match0.score)
                   0. list))
            problem
        in
        let bound = Pj_core.Scoring.upper_bound scoring best_values in
        bound > weakest.score
        || (bound = weakest.score && doc_id < weakest.doc_id)
  in
  Array.iter
    (fun doc_id ->
      let problem = Pj_matching.Match_builder.from_index idx ~doc_id q in
      if worth_solving ~doc_id problem then begin
        match Pj_core.Best_join.solve ~dedup:true scoring problem with
        | None -> ()
        | Some r ->
            let hit = { doc_id; score = r.Pj_core.Naive.score } in
            if Pj_util.Heap.length heap < k then Pj_util.Heap.push heap hit
            else begin
              match Pj_util.Heap.peek heap with
              | Some weakest
                when hit.score > weakest.score
                     || (hit.score = weakest.score
                        && hit.doc_id < weakest.doc_id) ->
                  ignore (Pj_util.Heap.pop heap);
                  Pj_util.Heap.push heap hit
              | Some _ | None -> ()
            end
      end)
    (old_candidates idx q);
  Pj_util.Heap.length heap

(* --- the example corpus ------------------------------------------------ *)

(* Filler-heavy documents with three planted terms at realistic
   selectivities; two terms have a second, lower-scored form so the
   DAAT term cursors are genuine multi-list unions. *)
let query =
  Pj_matching.Query.make "bench"
    [
      Pj_matching.Matcher.of_table ~name:"t1" [ ("alpha", 1.0); ("alfa", 0.7) ];
      Pj_matching.Matcher.of_table ~name:"t2" [ ("bravo", 0.9); ("brav", 0.5) ];
      Pj_matching.Matcher.of_table ~name:"t3" [ ("charlie", 0.8) ];
    ]

let plant rng tokens form p =
  if Pj_util.Prng.float rng 1. < p then begin
    let n = 1 + Pj_util.Prng.int rng 3 in
    for _ = 1 to n do
      tokens.(Pj_util.Prng.int rng (Array.length tokens)) <- form
    done
  end

let build_corpus ~n_docs rng =
  let corpus = Pj_index.Corpus.create () in
  for _ = 1 to n_docs do
    let len = 80 + Pj_util.Prng.int rng 120 in
    let tokens = Array.init len (fun _ -> Textgen.random_filler rng) in
    plant rng tokens "alpha" 0.45;
    plant rng tokens "alfa" 0.15;
    plant rng tokens "bravo" 0.35;
    plant rng tokens "brav" 0.10;
    plant rng tokens "charlie" 0.30;
    ignore (Pj_index.Corpus.add_tokens corpus tokens)
  done;
  corpus

(* --- measurement ------------------------------------------------------- *)

type point = {
  mean_s : float;
  alloc_bytes : float;  (* per run *)
}

let measure_point ~repetitions f =
  let m = Runs.log_cov (Pj_util.Timing.measure ~repetitions f) in
  let a0 = Gc.allocated_bytes () in
  f ();
  let alloc_bytes = Gc.allocated_bytes () -. a0 in
  { mean_s = m.Pj_util.Timing.mean_s; alloc_bytes }

let json_point { mean_s; alloc_bytes } =
  Printf.sprintf "{\"mean_s\": %.9f, \"alloc_bytes\": %.0f}" mean_s alloc_bytes

let json_pair name old_p new_p =
  Printf.sprintf
    "  %S: {\"old\": %s, \"new\": %s, \"speedup\": %.3f, \"alloc_ratio\": \
     %.3f}"
    name (json_point old_p) (json_point new_p)
    (old_p.mean_s /. Float.max 1e-12 new_p.mean_s)
    (old_p.alloc_bytes /. Float.max 1. new_p.alloc_bytes)

let run ~quick ~repetitions =
  let n_docs = if quick then 500 else 2000 in
  let rng = Pj_util.Prng.create 2024 in
  let corpus = build_corpus ~n_docs rng in
  let idx = Pj_index.Inverted_index.build corpus in
  let s = Pj_engine.Searcher.create idx in
  let scoring = Pj_core.Scoring.Win (Pj_core.Scoring.win_exponential ~alpha:0.1) in
  let k = 10 in
  let stats = Pj_index.Inverted_index.stats idx in
  Runs.print_header
    (Printf.sprintf
       "bench-daat: set-based vs cursor candidate generation (%d docs, %d \
        postings)"
       n_docs stats.Pj_index.Inverted_index.n_postings)
    [ "old"; "new"; "speedup"; "old B"; "new B" ];
  let row name old_p new_p =
    Runs.print_row name
      [
        Runs.seconds old_p.mean_s;
        Runs.seconds new_p.mean_s;
        Printf.sprintf "%.2fx" (old_p.mean_s /. Float.max 1e-12 new_p.mean_s);
        Printf.sprintf "%.0f" old_p.alloc_bytes;
        Printf.sprintf "%.0f" new_p.alloc_bytes;
      ]
  in
  let cand_old =
    measure_point ~repetitions (fun () ->
        ignore (Sys.opaque_identity (old_candidates idx query)))
  in
  let cand_new =
    measure_point ~repetitions (fun () ->
        ignore (Sys.opaque_identity (Pj_engine.Searcher.candidates s query)))
  in
  row "candidates" cand_old cand_new;
  let search_old =
    measure_point ~repetitions (fun () ->
        ignore (Sys.opaque_identity (old_search ~k idx scoring query)))
  in
  let search_new =
    measure_point ~repetitions (fun () ->
        ignore
          (Sys.opaque_identity (Pj_engine.Searcher.search ~k s scoring query)))
  in
  row "search" search_old search_new;
  let path = "BENCH_daat.json" in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"n_docs\": %d,\n  \"n_postings\": %d,\n%s,\n%s\n}\n"
    n_docs stats.Pj_index.Inverted_index.n_postings
    (json_pair "candidates" cand_old cand_new)
    (json_pair "search" search_old search_new);
  close_out oc;
  Printf.printf "[bench-daat] wrote %s\n" path
