(* Unit tests for the live index: immediate visibility, delete
   semantics, flush/merge mechanics, the stats accounting invariant,
   and the generation-swap hook. *)

open Pj_live

let scoring = Pj_core.Scoring.Win (Pj_core.Scoring.win_exponential ~alpha:0.3)

let query =
  Pj_matching.Query.make "ab"
    [ Pj_matching.Matcher.exact "aa"; Pj_matching.Matcher.exact "bb" ]

(* Tiny deterministic configuration: auto-flush every 4 documents,
   compact above 2 segments, no background domain. *)
let config =
  {
    Live_index.default_config with
    Live_index.memtable_capacity = 4;
    merge_threshold = 2;
    background_merge = false;
  }

let doc_ids live =
  List.map
    (fun h -> h.Pj_engine.Searcher.doc_id)
    (Live_index.search ~k:max_int live scoring query)

let check_invariant live =
  let s = Live_index.stats live in
  Alcotest.(check int)
    "docs = segment_docs + memtable_docs - tombstones" s.Live_index.docs
    (s.Live_index.segment_docs + s.Live_index.memtable_docs
   - s.Live_index.tombstones)

let test_empty () =
  let live = Live_index.create ~config () in
  Alcotest.(check (list int)) "no hits" [] (doc_ids live);
  Alcotest.(check int) "generation 0" 0 (Live_index.generation live);
  Alcotest.(check bool) "nothing to merge" false (Live_index.merge_now live);
  check_invariant live;
  Live_index.close live

let test_add_visible () =
  let live = Live_index.create ~config () in
  let id = Live_index.add live [| "aa"; "bb" |] in
  Alcotest.(check int) "first id" 0 id;
  Alcotest.(check (list int)) "visible before any flush" [ 0 ] (doc_ids live);
  let id2 = Live_index.add live [| "cc"; "aa"; "bb" |] in
  Alcotest.(check int) "dense ids" 1 id2;
  Alcotest.(check bool) "generation advanced" true
    (Live_index.generation live >= 2);
  check_invariant live;
  Live_index.close live

let test_add_batch () =
  let live = Live_index.create ~config () in
  let first =
    Live_index.add_batch live [ [| "aa"; "bb" |]; [| "cc" |]; [| "bb"; "aa" |] ]
  in
  Alcotest.(check int) "first id" 0 first;
  Alcotest.(check (list int)) "batch visible" [ 0; 2 ] (doc_ids live);
  Alcotest.(check int) "total docs" 3 (Live_index.stats live).Live_index.docs;
  check_invariant live;
  Live_index.close live

(* Satellite regression: a batch larger than [memtable_capacity] (4)
   must seal at every capacity boundary inside the batch instead of
   growing the memtable unboundedly until the end. *)
let test_add_batch_seals_at_capacity () =
  let live = Live_index.create ~config () in
  let docs = List.init 10 (fun i -> [| "aa"; "bb"; Printf.sprintf "w%d" i |]) in
  let first = Live_index.add_batch live docs in
  Alcotest.(check int) "first id" 0 first;
  let st = Live_index.stats live in
  Alcotest.(check int) "all searchable" 10 st.Live_index.docs;
  Alcotest.(check bool)
    "memtable within capacity" true
    (st.Live_index.memtable_docs <= 4);
  Alcotest.(check int) "two chunks sealed" 2 st.Live_index.segments;
  Alcotest.(check int) "residue in memtable" 2 st.Live_index.memtable_docs;
  Alcotest.(check (list int)) "batch visible"
    (List.init 10 Fun.id)
    (doc_ids live);
  check_invariant live;
  Live_index.close live

(* One merge_now over a deep segment stack folds exactly one adjacent
   pair — the cheapest, the lowest position on a tie — under one
   generation bump. The manifest shows which pair: over eight singleton
   segments the first step folds positions 0 and 1, the second the
   now-cheapest singletons 1 and 2. *)
let test_merge_one_pair () =
  let dir = Filename.temp_dir "pj_live_merge" "" in
  let config =
    { config with Live_index.dir = Some dir; memtable_capacity = 1 }
  in
  let live = Live_index.open_dir ~config dir in
  for i = 0 to 7 do
    ignore (Live_index.add live [| "aa"; "bb"; Printf.sprintf "w%d" i |])
  done;
  let lens () =
    match Manifest.read ~dir with
    | Some m -> List.map (fun e -> e.Manifest.len) m.Manifest.segments
    | None -> Alcotest.fail "no manifest"
  in
  Alcotest.(check (list int)) "eight singleton segments"
    [ 1; 1; 1; 1; 1; 1; 1; 1 ] (lens ());
  let gen_before = Live_index.generation live in
  Alcotest.(check bool) "one step ran" true (Live_index.merge_now live);
  let st = Live_index.stats live in
  Alcotest.(check (list int)) "first pair folded" [ 2; 1; 1; 1; 1; 1; 1 ]
    (lens ());
  Alcotest.(check int) "seven segments" 7 st.Live_index.segments;
  Alcotest.(check int) "one merge counted" 1 st.Live_index.merges;
  Alcotest.(check int) "one generation bump" (gen_before + 1)
    (Live_index.generation live);
  Alcotest.(check (list int)) "all docs survive" (List.init 8 Fun.id)
    (doc_ids live);
  Alcotest.(check bool) "second step ran" true (Live_index.merge_now live);
  Alcotest.(check (list int)) "cheapest pair folded next" [ 2; 2; 1; 1; 1; 1 ]
    (lens ());
  Live_index.quiesce live;
  let st = Live_index.stats live in
  Alcotest.(check int) "policy satisfied" 2 st.Live_index.segments;
  Alcotest.(check int) "one merge per folded segment" 6 st.Live_index.merges;
  Alcotest.(check (list int)) "quiesced results intact" (List.init 8 Fun.id)
    (doc_ids live);
  check_invariant live;
  Live_index.close live;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

let test_delete () =
  let live = Live_index.create ~config () in
  ignore (Live_index.add live [| "aa"; "bb" |]);
  ignore (Live_index.add live [| "aa"; "cc"; "bb" |]);
  Alcotest.(check (list int)) "both visible" [ 0; 1 ] (doc_ids live);
  (match Live_index.delete live 0 with
  | Ok () -> ()
  | Error `Not_found -> Alcotest.fail "delete of a live doc failed");
  Alcotest.(check (list int)) "hidden immediately" [ 1 ] (doc_ids live);
  Alcotest.(check bool) "double delete" true
    (Live_index.delete live 0 = Error `Not_found);
  Alcotest.(check bool) "never-assigned id" true
    (Live_index.delete live 99 = Error `Not_found);
  check_invariant live;
  Live_index.close live

let test_auto_flush () =
  let live = Live_index.create ~config () in
  for _ = 1 to 4 do
    ignore (Live_index.add live [| "aa"; "bb" |])
  done;
  let s = Live_index.stats live in
  Alcotest.(check int) "memtable sealed at capacity" 0 s.Live_index.memtable_docs;
  Alcotest.(check int) "one segment" 1 s.Live_index.segments;
  Alcotest.(check (list int)) "all still searchable" [ 0; 1; 2; 3 ]
    (doc_ids live);
  check_invariant live;
  Live_index.close live

let test_flush_idempotent () =
  let live = Live_index.create ~config () in
  ignore (Live_index.add live [| "aa"; "bb" |]);
  let g1 = Live_index.flush live in
  Alcotest.(check int) "flush sealed the memtable" 1
    (Live_index.stats live).Live_index.segments;
  let g2 = Live_index.flush live in
  Alcotest.(check int) "empty flush is a no-op" g1 g2;
  Alcotest.(check int) "no empty segment" 1
    (Live_index.stats live).Live_index.segments;
  Live_index.close live

let test_merge_purges_tombstones () =
  let live = Live_index.create ~config () in
  (* Three sealed segments of two docs each. *)
  for i = 0 to 5 do
    ignore (Live_index.add live [| "aa"; "bb"; Printf.sprintf "w%d" i |]);
    if i mod 2 = 1 then ignore (Live_index.flush live)
  done;
  Alcotest.(check int) "three segments" 3
    (Live_index.stats live).Live_index.segments;
  (match Live_index.delete live 1 with
  | Ok () -> ()
  | Error `Not_found -> Alcotest.fail "delete failed");
  Alcotest.(check int) "tombstone pending" 1
    (Live_index.stats live).Live_index.tombstones;
  Live_index.quiesce live;
  let s = Live_index.stats live in
  Alcotest.(check bool) "compacted to threshold" true
    (s.Live_index.segments <= 2);
  Alcotest.(check int) "tombstone purged" 0 s.Live_index.tombstones;
  Alcotest.(check bool) "merges counted" true (s.Live_index.merges >= 1);
  Alcotest.(check (list int)) "deleted doc stays gone" [ 0; 2; 3; 4; 5 ]
    (doc_ids live);
  Alcotest.(check bool) "compacted id not deletable" true
    (Live_index.delete live 1 = Error `Not_found);
  check_invariant live;
  Live_index.close live

let test_on_swap () =
  let live = Live_index.create ~config () in
  let gens = ref [] in
  Live_index.on_swap live (fun g -> gens := g :: !gens);
  ignore (Live_index.add live [| "aa" |]);
  ignore (Live_index.add live [| "bb" |]);
  ignore (Live_index.flush live);
  (match Live_index.delete live 0 with Ok () -> () | Error _ -> ());
  let observed = List.rev !gens in
  Alcotest.(check (list int)) "one bump per mutation" [ 1; 2; 3; 4 ] observed;
  Alcotest.(check int) "hook saw the final generation" 4
    (Live_index.generation live);
  Live_index.close live

let test_k_zero () =
  let live = Live_index.create ~config () in
  ignore (Live_index.add live [| "aa"; "bb" |]);
  Alcotest.(check (list int))
    "k=0" []
    (List.map
       (fun h -> h.Pj_engine.Searcher.doc_id)
       (Live_index.search ~k:0 live scoring query));
  Live_index.close live

let suite =
  [
    Alcotest.test_case "empty index" `Quick test_empty;
    Alcotest.test_case "add is visible immediately" `Quick test_add_visible;
    Alcotest.test_case "add_batch" `Quick test_add_batch;
    Alcotest.test_case "add_batch seals at capacity" `Quick
      test_add_batch_seals_at_capacity;
    Alcotest.test_case "merge_now folds one cheapest pair" `Quick
      test_merge_one_pair;
    Alcotest.test_case "delete semantics" `Quick test_delete;
    Alcotest.test_case "auto-flush at capacity" `Quick test_auto_flush;
    Alcotest.test_case "flush is idempotent" `Quick test_flush_idempotent;
    Alcotest.test_case "merge purges tombstones" `Quick
      test_merge_purges_tombstones;
    Alcotest.test_case "on_swap sees every generation" `Quick test_on_swap;
    Alcotest.test_case "k = 0" `Quick test_k_zero;
  ]
