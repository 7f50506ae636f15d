(* Seeded inputs: documents, the pool of SEARCH lines and the request
   stream over it, and ADDDOC documents. Everything here is a function
   of the seed; the program under test only ever sees the files and
   lines made from it.

   Documents draw words from a Zipf vocabulary (s = 1, 20k words) and
   have heavy-tailed lengths: 97% are 100–300 tokens, 3% are
   1000–3000. Half of them carry planted lemmas from the built-in
   lemma graph, so [wordnet:] terms match at graded scores. Query
   lines mix WIN/MED/MAX, k in {10, 50}, 2–4 terms of [exact:],
   [exact:a|exact:b] and [wordnet:] kinds; the query_* streams draw lines from
   the pool Zipf-skewed, so the result cache serves a minority. *)

module Prng = Pj_util.Prng

let vocab_size = 20_000

(* Pronounceable words whose Porter stem is themselves, so [exact:w]
   matches the stemmed corpus. Fixed across seeds: the seed varies the
   sampling, not the language. *)
let vocabulary =
  lazy
    (let rng = Prng.create 0x5eed in
     let cons = "bcdfghjklmnpqrstvwxz" and vow = "aeiou" in
     let seen = Hashtbl.create (2 * vocab_size) in
     let out = Array.make vocab_size "" in
     let n = ref 0 in
     while !n < vocab_size do
       let b = Buffer.create 10 in
       for _ = 1 to 2 + Prng.int rng 3 do
         Buffer.add_char b cons.[Prng.int rng 20];
         Buffer.add_char b vow.[Prng.int rng 5]
       done;
       Buffer.add_char b cons.[Prng.int rng 20];
       let w = Buffer.contents b in
       if
         (not (Hashtbl.mem seen w))
         && Pj_text.Porter.stem w = w
         && not (Pj_text.Stopwords.mem w)
       then begin
         Hashtbl.add seen w ();
         out.(!n) <- w;
         incr n
       end
     done;
     out)

(* Lemma groups of the built-in graph: a [wordnet:CONCEPT] term matches
   the group's words at scores 1 - 0.3 d by graph distance. *)
let concepts =
  [|
    ("pc-maker",
      [| "lenovo"; "dell"; "acer"; "asus"; "toshiba"; "ibm"; "laptop-maker";
         "company"; "firm"; "manufacturer" |]);
    ("sports",
      [| "nba"; "nfl"; "fifa"; "olympics"; "basketball"; "football"; "soccer";
         "league"; "tournament"; "athlete" |]);
    ("partnership",
      [| "partner"; "alliance"; "collaboration"; "cooperation"; "deal";
         "agreement"; "contract"; "sponsorship"; "sponsor" |]);
    ("school",
      [| "academy"; "college"; "university"; "institution"; "campus";
         "institute" |]);
    ("city",
      [| "town"; "metropolis"; "village"; "capital"; "municipality"; "place" |]);
  |]

let zipf_words = lazy (Pj_util.Dist.zipf ~n:vocab_size ~s:1.0)

let doc_tokens rng ~max_len =
  let vocab = Lazy.force vocabulary and dist = Lazy.force zipf_words in
  let len =
    if Prng.int rng 100 < 97 then Prng.int_in rng 100 300
    else Prng.int_in rng 1000 3000
  in
  let len = min len max_len in
  let toks = Array.init len (fun _ -> vocab.(Pj_util.Dist.sample dist rng)) in
  if Prng.bool rng then
    for _ = 1 to 1 + Prng.int rng 2 do
      let _, lemmas = Prng.choose rng concepts in
      for _ = 1 to 1 + Prng.int rng 3 do
        toks.(Prng.int rng len) <- Prng.choose rng lemmas
      done
    done;
  toks

let doc rng = String.concat " " (Array.to_list (doc_tokens rng ~max_len:max_int))

(* A word drawn log-uniformly by rank in [40, 3000): frequent and rare
   terms alike, so per-query work is heavy-tailed. The 40 most frequent
   words (each about 0.25% of all tokens or more) are left out, as a
   search engine's users leave out stopwords: a line of two of them
   costs tens of milliseconds, and how many such lines a seed draws
   would decide the latencies on its own. *)
let query_word rng =
  let vocab = Lazy.force vocabulary in
  let r = exp (log 40. +. Prng.float rng (log 3000. -. log 40.)) in
  vocab.(int_of_float r)

let term rng =
  match Prng.int rng 100 with
  | x when x < 25 -> "wordnet:" ^ fst (Prng.choose rng concepts)
  | x when x < 45 ->
      let a = query_word rng and b = query_word rng in
      if a = b then "exact:" ^ a else Printf.sprintf "exact:%s|exact:%s" a b
  | _ -> "exact:" ^ query_word rng

(* The stemmed expansion forms a term matches, as the server sees them. *)
let graph = lazy (Pj_ontology.Mini_wordnet.create ())

let forms term =
  match Pj_matching.Query_parser.parse_term (Lazy.force graph) term with
  | Ok m -> (
      match (Pj_matching.Matcher.stem_expansions m).Pj_matching.Matcher.expansions with
      | Some l -> List.map fst l
      | None -> [])
  | Error msg -> failwith msg

(* Terms of one line match disjoint sets of forms: no two terms can
   match the same token. A query whose terms share a form never returns
   and ignores its deadline (see README.md, "Known defects"), so the
   generator draws form-disjoint terms as it draws distinct ones. *)
let rec disjoint_terms rng n acc used =
  if List.length acc = n then List.rev acc
  else
    let t = term rng in
    let f = forms t in
    if List.exists (fun x -> List.mem x used) f then disjoint_terms rng n acc used
    else disjoint_terms rng n (t :: acc) (f @ used)

let search_line rng =
  let family = [| "win"; "med"; "max" |].(Prng.int rng 3) in
  let alpha = [| 0.05; 0.1; 0.2 |].(Prng.int rng 3) in
  let k = if Prng.int rng 10 < 7 then 10 else 50 in
  let n_terms = match Prng.int rng 100 with x when x < 50 -> 2 | x when x < 85 -> 3 | _ -> 4 in
  Printf.sprintf "SEARCH %s %g %d %s" family alpha k
    (String.concat " " (disjoint_terms rng n_terms [] []))

(* A line's query identity: family, alpha, k and the set of terms. *)
let query_key line =
  match String.split_on_char ' ' line with
  | verb :: family :: alpha :: k :: terms ->
      String.concat " " (verb :: family :: alpha :: k :: List.sort compare terms)
  | _ -> line

(* [n] distinct queries: no line is a reordering of another. The result
   cache keys on the term set, and a reordered query's MAX/MED scores
   can differ in the last bit, so a cached reordering would answer a
   line with bytes that are not its own (see README.md, "Known
   defects"). *)
let pool rng n =
  let seen = Hashtbl.create (2 * n) in
  let out = Array.make n "" in
  let i = ref 0 in
  while !i < n do
    let l = search_line rng in
    let key = query_key l in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      out.(!i) <- l;
      incr i
    end
  done;
  out

(* The request stream: pool indexes drawn Zipf-skewed with exponent
   [s] (0 draws uniformly). *)
let stream rng ~s ~pool_size ~count =
  let d = Pj_util.Dist.zipf ~n:pool_size ~s in
  Array.init count (fun _ -> Pj_util.Dist.sample d rng)

(* A unique letters-only token per ingested document (Porter leaves a
   trailing 'x' alone), so a recovered document can be found by id. *)
let marker i =
  let cons = "bcdfghjklmnpqrstvwz" in
  let b = Buffer.create 10 in
  Buffer.add_string b "qz";
  let rec go n =
    Buffer.add_char b cons.[n mod 19];
    if n >= 19 then go (n / 19)
  in
  go i;
  Buffer.add_char b 'x';
  Buffer.contents b

(* ADDDOC texts: one request line each, so lengths stay under the
   protocol's line cap; each carries its marker. *)
let add_doc rng i =
  let toks = doc_tokens rng ~max_len:400 in
  toks.(Prng.int rng (Array.length toks)) <- marker i;
  String.concat " " (Array.to_list toks)

(* Documents file as the CLI reads it: blank-line-separated. *)
let write_docs path docs =
  let oc = open_out_bin path in
  Array.iter
    (fun d ->
      output_string oc d;
      output_string oc "\n\n")
    docs;
  close_out oc

let text_bytes docs = Array.fold_left (fun acc d -> acc + String.length d) 0 docs

(* The corpus exactly as [proxjoin serve]/[compact] build it from a
   documents file: tokenized and Porter-stemmed. *)
let stemmed d = Array.map Pj_text.Porter.stem (Pj_text.Tokenizer.tokenize_array d)

let corpus docs =
  let c = Pj_index.Corpus.create () in
  Array.iter (fun d -> ignore (Pj_index.Corpus.add_tokens c (stemmed d))) docs;
  c
