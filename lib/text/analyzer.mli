(** The one text normalization every indexed corpus shares: the
    lowercase word tokens of {!Tokenizer}, each reduced to its Porter
    stem. The CLI's corpus loaders and the server's ADDDOC both index
    through it, so a query whose expansion forms are stemmed the same
    way ([Pj_matching.Matcher.stem_expansions]) finds the same tokens
    in every served corpus. *)

val stems : string -> string array
(** The stemmed tokens of one text, in document order. *)

type memo
(** A per-load cache from surface word to the vocabulary id of its stem.
    It grows with the distinct words of the load, so it lives as long
    as one bulk load, not as long as a server. *)

val memo : Vocab.t -> memo
(** An empty cache interning into the given vocabulary. *)

val token_ids : memo -> string -> int array
(** [Vocab.intern_all v (stems text)] for the memo's vocabulary [v],
    with stemming and interning done once per distinct surface word
    across every text of the memo's life. Ids are assigned in the same
    first-occurrence order as the per-token form. *)
