(** The writer of the legacy corpus format ("PJIX" v1–v3). Production
    code only reads these files ({!Pj_index.Storage}, for [compact]'s
    migration to v4); this writer makes the fixtures of the migration
    matrix and the storage bench's v3 arm.

    v1 is the vocabulary then each document's token ids, as LEB128
    varints; v2 adds a CRC-32 footer over the payload; v3 also records
    the shard layout at the end of the payload. *)

val save_corpus : ?version:int -> Pj_index.Corpus.t -> string -> unit
(** Write the corpus as [version] (default 3; a v3 file records one
    shard) through {!Pj_index.Storage.write_file_atomic}, with the
    failpoint sites [storage.save.write] / [storage.save.rename].
    Raises [Invalid_argument] for a version outside 1–3. *)

val save : Pj_index.Inverted_index.t -> string -> unit
(** [save idx path] writes the index's corpus as v3. *)

val save_sharded : Pj_index.Sharded_index.t -> string -> unit
(** The corpus with its shard layout, as v3. *)
