type search_request = {
  family : string;
  alpha : float;
  k : int;
  terms : string list;
}

type request =
  | Ping
  | Stats
  | Quit
  | Search of search_request
  | Add_doc of string
  | Del_doc of int
  | Flush

let families = [ "win"; "med"; "max" ]
let max_k = 10_000
let max_terms = 16
let max_line_bytes = 4096

let scoring_of ~family ~alpha =
  match family with
  | "win" -> Ok (Pj_core.Scoring.Win (Pj_core.Scoring.win_exponential ~alpha))
  | "med" -> Ok (Pj_core.Scoring.Med (Pj_core.Scoring.med_exponential ~alpha))
  | "max" -> Ok (Pj_core.Scoring.Max (Pj_core.Scoring.max_sum ~alpha))
  | other -> Error (Printf.sprintf "unknown scoring family %S" other)

(* Tokens are maximal runs of non-blank characters, so any amount of
   spacing (including a trailing "\r" from netcat-style clients) is
   accepted between arguments. *)
let tokenize line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.map String.trim
  |> List.filter (fun s -> s <> "")

let parse_search = function
  | family :: alpha :: k :: terms ->
      if not (List.mem family families) then
        Error (Printf.sprintf "unknown scoring family %S (want win|med|max)" family)
      else begin
        match float_of_string_opt alpha with
        | None -> Error (Printf.sprintf "bad alpha %S (want a float)" alpha)
        | Some a when (not (Float.is_finite a)) || a < 0. ->
            (* Non-finite alpha (nan, inf) would poison the exponential
               scoring closures — every score becomes nan/0. *)
            Error (Printf.sprintf "bad alpha %S (want a finite float >= 0)" alpha)
        | Some alpha -> begin
            match int_of_string_opt k with
            | None -> Error (Printf.sprintf "bad k %S (want an integer)" k)
            | Some k when k < 0 -> Error "bad k (want k >= 0)"
            | Some k when k > max_k ->
                Error (Printf.sprintf "bad k (at most %d)" max_k)
            | Some k ->
                if terms = [] then Error "SEARCH needs at least one term"
                else if List.length terms > max_terms then
                  Error (Printf.sprintf "too many terms (at most %d)" max_terms)
                else Ok (Search { family; alpha; k; terms })
          end
      end
  | _ -> Error "usage: SEARCH <win|med|max> <alpha> <k> <term> ..."

(* ADDDOC carries raw document text, not protocol tokens: the verb is
   the first non-blank run of the line and everything after it (minus
   surrounding blanks and a trailing "\r") is the document — the
   whitespace-collapsing [tokenize] must not touch it. *)
let adddoc_text line =
  let n = String.length line in
  let is_blank c = c = ' ' || c = '\t' || c = '\r' in
  let start = ref 0 in
  while !start < n && is_blank line.[!start] do incr start done;
  (* the caller matched the verb already, so this cannot underrun *)
  let after = !start + String.length "ADDDOC" in
  let b = ref after and e = ref n in
  while !b < n && is_blank line.[!b] do incr b done;
  while !e > !b && is_blank line.[!e - 1] do decr e done;
  String.sub line !b (!e - !b)

let parse_request line =
  if String.length line > max_line_bytes then Error "request line too long"
  else
    match tokenize line with
    | [] -> Error "empty request"
    | [ "PING" ] -> Ok Ping
    | [ "STATS" ] -> Ok Stats
    | [ "QUIT" ] -> Ok Quit
    | [ "FLUSH" ] -> Ok Flush
    | "SEARCH" :: rest -> parse_search rest
    | "ADDDOC" :: _ -> (
        match adddoc_text line with
        | "" -> Error "ADDDOC needs document text"
        | text -> Ok (Add_doc text))
    | [ "DELDOC"; id ] -> (
        match int_of_string_opt id with
        | Some id when id >= 0 -> Ok (Del_doc id)
        | Some _ -> Error "bad doc id (want id >= 0)"
        | None -> Error (Printf.sprintf "bad doc id %S (want an integer)" id))
    | "DELDOC" :: _ -> Error "usage: DELDOC <id>"
    | ("PING" | "STATS" | "QUIT" | "FLUSH") :: _ :: _ ->
        Error "PING, STATS, QUIT and FLUSH take no arguments"
    | cmd :: _ ->
        Error
          (Printf.sprintf
             "unknown command %S (want SEARCH|ADDDOC|DELDOC|FLUSH|PING|STATS|QUIT)"
             cmd)

(* The key under which a search is cached: scoring parameters plus the
   terms in request order. Reordered terms get their own entry: the
   families are symmetric in exact arithmetic, but a MAX or MED score
   summed in another order can differ in the last bit, and a line must
   never be answered with a reordering's bytes. *)
let cache_key { family; alpha; k; terms } =
  Printf.sprintf "%s|%.17g|%d|%s" family alpha k (String.concat "\x00" terms)

(* Error payloads come from arbitrary exception messages
   ([Printexc.to_string] in the ingest batcher and worker pool), so
   they may carry newlines — a phantom protocol line to the client —
   or other control bytes (tabs, NUL, ANSI escapes) that tear the
   framing or smuggle terminal escapes. Collapse every run of
   whitespace/control bytes to a single space and trim the ends, so
   whatever the exception printed, the response is one clean line. *)
let one_line msg =
  let buf = Buffer.create (String.length msg) in
  let pending = ref false in
  String.iter
    (fun c ->
      if c <= ' ' || c = '\x7f' then begin
        if Buffer.length buf > 0 then pending := true
      end
      else begin
        if !pending then Buffer.add_char buf ' ';
        pending := false;
        Buffer.add_char buf c
      end)
    msg;
  Buffer.contents buf

(* Two render precisions share one formatter: the human-facing text
   protocol keeps 9 significant digits, while the binary wire renders
   17 — enough for a float64 to round-trip exactly through
   [float_of_string], which is what lets a router parse a backend's
   scores, merge, and re-render byte-identically to a single-process
   server. *)
let text_precision = 9
let exact_precision = 17

let string_of_id_scores ?(precision = text_precision) pairs =
  let body =
    List.map (fun (id, score) -> Printf.sprintf "%d:%.*g" id precision score) pairs
  in
  String.concat " " (Printf.sprintf "HITS %d" (List.length pairs) :: body)

let string_of_hits ?precision hits =
  string_of_id_scores ?precision
    (List.map
       (fun (h : Pj_engine.Searcher.hit) ->
         (h.Pj_engine.Searcher.doc_id, h.Pj_engine.Searcher.score))
       hits)

(* A degraded answer is a complete HITS line prefixed with which
   legs are missing, so clients that only want best-effort results
   can strip everything up to "HITS" and proceed. *)
let ok_degraded_ids ?precision ~failed_shards pairs =
  Printf.sprintf "OK-DEGRADED shards=%s %s"
    (String.concat "," (List.map string_of_int failed_shards))
    (string_of_id_scores ?precision pairs)

(* Inverse of [string_of_id_scores], for router legs and test oracles.
   Strict: the declared count must match, every token must be
   [id:score] with a non-negative id and a finite-or-parsable score. *)
let parse_hits line =
  match tokenize line with
  | "HITS" :: n :: rest -> begin
      match int_of_string_opt n with
      | None -> Error (Printf.sprintf "bad HITS count %S" n)
      | Some n when n <> List.length rest ->
          Error
            (Printf.sprintf "HITS count mismatch (declared %d, got %d)" n
               (List.length rest))
      | Some _ ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | tok :: tl -> begin
                match String.index_opt tok ':' with
                | None -> Error (Printf.sprintf "bad hit token %S" tok)
                | Some i -> begin
                    let id = String.sub tok 0 i in
                    let score =
                      String.sub tok (i + 1) (String.length tok - i - 1)
                    in
                    match (int_of_string_opt id, float_of_string_opt score) with
                    | Some id, Some score when id >= 0 ->
                        go ((id, score) :: acc) tl
                    | _ -> Error (Printf.sprintf "bad hit token %S" tok)
                  end
              end
          in
          go [] rest
    end
  | _ -> Error "not a HITS line"

let added id = Printf.sprintf "ADDED %d" id
let deleted id = Printf.sprintf "DELETED %d" id

let flushed ~generation ~segments =
  Printf.sprintf "FLUSHED gen=%d segments=%d" generation segments

let pong = "PONG"
let bye = "BYE"
let busy = "BUSY"
let timeout = "TIMEOUT"
let err msg = "ERR " ^ one_line msg

let has_prefix p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* Only complete results may be replayed from the cache: a TIMEOUT is
   a statement about one request's wall clock, a degraded line about
   one request's shard luck — neither is a property of the query. *)
let cacheable response = has_prefix "HITS " response

(* Responses that answer a search with hits (complete or degraded),
   as opposed to an error/backpressure outcome — what the latency
   histogram observes. *)
let is_search_success response =
  has_prefix "HITS " response || has_prefix "OK-DEGRADED " response

(* The response acknowledges a completed write — what the ingest
   latency histogram observes. Never cacheable (writes are not
   queries). *)
let is_ingest_success response =
  has_prefix "ADDED " response
  || has_prefix "DELETED " response
  || has_prefix "FLUSHED " response
