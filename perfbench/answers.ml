(* In-process reference answers: a request line parsed the way the
   server parses it and answered by the engine directly, rendered the
   way the binary dialect renders it (17 significant digits), so a
   socket response can be compared byte for byte. *)

module Protocol = Pj_server.Protocol

let graph = lazy (Pj_ontology.Mini_wordnet.create ())

type search = {
  request : Protocol.search_request;
  scoring : Pj_core.Scoring.t;
  query : Pj_matching.Query.t;
}

let get what = function Ok v -> v | Error msg -> failwith (what ^ ": " ^ msg)

(* Served indexes hold Porter stems, so the server stems every
   matcher's expansions the same way; so must the reference. *)
let stemmed_query q =
  {
    q with
    Pj_matching.Query.matchers =
      Array.map Pj_matching.Matcher.stem_expansions q.Pj_matching.Query.matchers;
  }

(* Protocol parse + query parse: the work the server does per line
   before it searches. *)
let parse line =
  match Protocol.parse_request line with
  | Ok (Protocol.Search request) ->
      {
        request;
        scoring =
          get "scoring"
            (Protocol.scoring_of ~family:request.Protocol.family
               ~alpha:request.Protocol.alpha);
        query = stemmed_query (get "query"
            (Pj_matching.Query_parser.parse (Lazy.force graph) request.Protocol.terms));
      }
  | Ok _ -> failwith ("not a SEARCH line: " ^ line)
  | Error msg -> failwith ("unparsable line " ^ line ^ ": " ^ msg)

let render hits = Protocol.string_of_hits ~precision:Protocol.exact_precision hits

let expected searcher s =
  render
    (Pj_engine.Searcher.search ~k:s.request.Protocol.k searcher s.scoring s.query)

let is_hits r = String.length r >= 5 && String.sub r 0 5 = "HITS "
