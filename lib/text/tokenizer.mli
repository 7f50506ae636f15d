(** Word tokenization.

    Splits raw text into lowercase word tokens. A token is a maximal run
    of ASCII letters, digits, or internal hyphens/apostrophes (trimmed at
    the edges); everything else separates tokens. Token positions are
    0-based indices into the token sequence — the location attribute of
    the paper's matches. *)

val tokenize : string -> string list
(** Tokens in document order, lowercased. *)

val tokenize_array : string -> string array

val iter : (string -> unit) -> string -> unit
(** [iter f text] calls [f] on each token in document order, without
    building the sequence. *)

val is_word_char : char -> bool
(** Characters that may appear inside a token. *)
