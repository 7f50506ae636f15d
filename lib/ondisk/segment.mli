(** Sealed live segments as ordinary v4 files.

    A segment holds the documents [\[base, base + len)] of a live
    corpus that keeps growing. Its file is a plain v4 index over a
    segment-local vocabulary (words interned in document order) and
    local doc ids [\[0, len)]; a dead document is written as an empty
    one. The file records neither [base] nor which documents are dead:
    the live manifest does. [inspect --deep] audits a segment file like
    any other v4 index.

    A live index serves a sealed segment from a heap index; the file is
    read back only by {!recover}, at restart, whose documents the live
    index rebuilds with [Inverted_index.build_docs ~skip:dead]. *)

val write :
  ?failpoint:string ->
  ?skip:(int -> bool) ->
  Pj_index.Corpus.t ->
  Pj_text.Document.t array ->
  string ->
  unit
(** [write corpus docs path] writes [docs] — consecutive documents of
    [corpus], with its global token ids — as a segment file at [path],
    crash-safely ([Writer.write]). [skip id] marks a dead document,
    written empty. [failpoint] is hit before the write and before the
    rename. Raises [Sys_error] on I/O failure. *)

val recover : Mapped_index.t -> Pj_index.Corpus.t -> unit
(** Append a segment file's documents to [corpus], re-interning their
    words into its vocabulary: the global token ids they were written
    from, when [corpus]'s vocabulary was replayed first. Each of the
    file's words is interned once. Checks the file first
    ({!Mapped_index.verify} and {!Mapped_index.check_dictionary}), so a
    posting that would be served past the segment's range is refused.
    Raises [Failure] on a corrupt file, before appending anything. *)
