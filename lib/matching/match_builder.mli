(** Building match-list problem instances from documents.

    Two strategies, both discussed in Section II of the paper:
    - [scan]: compute match lists online by scanning the document and
      matching each token against every query term;
    - [from_index]: derive match lists from a precomputed positional
      inverted index by merging the posting lists of each matcher's
      expansion forms (footnote 1's strategy). This requires matchers
      with finite expansions and an index whose tokens are in the same
      normalization as the expansion forms (e.g. a stemmed corpus for
      stemming matchers).

    Match payloads carry the document token id (scan) or the expansion
    form's token id (index), so applications can show what matched. *)

val scan :
  Pj_text.Vocab.t ->
  Pj_text.Document.t ->
  Query.t ->
  Pj_core.Match_list.problem
(** One match list per query term, sorted by location. *)

val form_tokens : Pj_text.Vocab.t -> (string * float) list -> (int * float) list
(** A matcher's expansions as vocabulary tokens: forms missing from the
    vocabulary are dropped, and a token listed more than once is kept
    once, at its best score, where it first appears. Distinct tokens
    never share a position, so a term's matches never share a location.
    [from_index] and the DAAT searcher both take a term's forms from
    here. *)

val of_form_matches : Pj_core.Match0.t array -> Pj_core.Match_list.t
(** Finalize one term's match list from the matches of its
    {!form_tokens}, collected in arbitrary order: sort by location. The
    array is adopted, and sorted in place when needed: input already in
    strictly increasing location order — always the case for a single
    form's positions — is returned as it is. *)

val from_index :
  Pj_index.Inverted_index.t ->
  doc_id:int ->
  Query.t ->
  Pj_core.Match_list.problem
(** Raises [Invalid_argument] when some matcher has no finite
    expansions. *)

val scan_corpus :
  Pj_index.Corpus.t ->
  Query.t ->
  (Pj_text.Document.t * Pj_core.Match_list.problem) array
(** [scan] over every document of a corpus. *)
