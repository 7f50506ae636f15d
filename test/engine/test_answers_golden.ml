(* Golden answers: the bytes a fixed query list gets from a fixed
   corpus, pinned from one commit to the next. Every other oracle
   compares two paths of the same commit (pruned against
   [Pj_reference], mmap against heap, shards against mono), and the
   reference solves through the same [Best_join] code, so a drift in
   solver arithmetic passes all of them; this test catches it.

   The corpus is the seed-fixed TREC-style workload of Q1 ([wordnet:]
   expansions with graded scores, years, dense scatter), small enough
   to run in well under a second yet several 128-posting blocks long
   per common form. Each SEARCH line is parsed the way the server
   parses it, answered on the heap index and on a compacted mmap copy,
   and rendered at [Protocol.exact_precision] with each hit's matchset
   locations. On a mismatch the actual answers are written to
   [answers_golden.actual] beside the test binary; the expected file
   changes only when an answer is meant to change. *)

open Pj_engine
module Protocol = Pj_server.Protocol

let expected_file = "answers_golden.expected"
let actual_file = "answers_golden.actual"

let term_lists =
  [
    [ "wordnet:pisa"; "wordnet:build" ];
    [ "exact:pisa"; "exact:built|exact:erected"; "exact:1990|exact:1995" ];
    [ "exact:tower|exact:italy"; "wordnet:build"; "exact:1992|exact:1999" ];
    [ "wordnet:began"; "wordnet:pisa"; "exact:1990|exact:1991";
      "wordnet:build" ];
    (* "tower" and "italy" are in the pisa expansion too: the best
       unconstrained matchset often uses one token for both terms, so
       the Section VI duplicate handler branches (on two thirds of the
       candidates). *)
    [ "wordnet:pisa"; "exact:tower|exact:italy" ];
  ]

let lines =
  List.concat_map
    (fun family ->
      List.concat_map
        (fun k ->
          List.map
            (fun terms ->
              Printf.sprintf "SEARCH %s 0.2 %d %s" family k
                (String.concat " " terms))
            term_lists)
        [ 10; 50 ])
    [ "win"; "med"; "max" ]

let corpus () =
  let case =
    Pj_workload.Trec_sim.generate ~seed:11 ~n_docs:600 ~doc_length:200
      (Pj_workload.Trec_sim.find_spec "Q1")
  in
  case.Pj_workload.Trec_sim.corpus

let graph = lazy (Pj_ontology.Mini_wordnet.create ())

let get what = function Ok v -> v | Error msg -> failwith (what ^ ": " ^ msg)

let parse line =
  match Protocol.parse_request line with
  | Ok (Protocol.Search r) ->
      ( r.Protocol.k,
        get "scoring"
          (Protocol.scoring_of ~family:r.Protocol.family
             ~alpha:r.Protocol.alpha),
        get "query"
          (Pj_matching.Query_parser.parse (Lazy.force graph) r.Protocol.terms) )
  | Ok _ | Error _ -> failwith ("not a SEARCH line: " ^ line)

let render searcher line =
  let k, scoring, q = parse line in
  let hits = Searcher.search ~k searcher scoring q in
  let locs =
    List.map
      (fun (h : Searcher.hit) ->
        Printf.sprintf "%d:%s" h.Searcher.doc_id
          (String.concat ","
             (Array.to_list
                (Array.map string_of_int
                   (Pj_core.Matchset.locations h.Searcher.matchset)))))
      hits
  in
  Printf.sprintf "%s\n  %s\n  locs %s\n" line
    (Protocol.string_of_hits ~precision:Protocol.exact_precision hits)
    (String.concat " " locs)

let answers searcher = String.concat "" (List.map (render searcher) lines)

let with_temp f =
  let path = Filename.temp_file "proxjoin_answers" ".pjx4" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_golden () =
  let index = Pj_index.Inverted_index.build (corpus ()) in
  let heap = answers (Searcher.create index) in
  let mapped =
    with_temp (fun path ->
        Pj_ondisk.Writer.write index path;
        answers
          (Searcher.create
             (Pj_ondisk.Mapped_index.index
                (Pj_ondisk.Mapped_index.open_file path))))
  in
  Alcotest.(check string) "mmap answers = heap answers" heap mapped;
  let expected = In_channel.with_open_bin expected_file In_channel.input_all in
  if heap <> expected then begin
    Out_channel.with_open_bin actual_file (fun oc -> output_string oc heap);
    Alcotest.failf "answers differ from %s; actual answers written to %s"
      expected_file actual_file
  end

let suite = [ Alcotest.test_case "golden search answers" `Quick test_golden ]
