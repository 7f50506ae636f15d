(** Producing v4 index files.

    [write idx path] persists the index's corpus, vocabulary and
    block-compressed postings in the mmap-servable v4 format (see
    [Format] / DESIGN.md §11). The write is crash-safe — bytes land in
    [path.tmp], are fsynced and atomically renamed over [path]
    ([Pj_util.Bytecodec.write_file_atomic]). The caller names the
    failpoint sites hit before the write ([fp_write]) and the rename
    ([fp_rename]): [compact] passes ["ondisk.save.write"] /
    ["ondisk.save.rename"], a live flush or merge [live.flush] /
    [live.merge] for both; none by default.

    [counts] records a shard layout (contiguous doc-id ranges); it
    defaults to one shard. Raises
    [Invalid_argument] when [counts] does not cover the corpus,
    [Sys_error] on I/O failure. *)

val write :
  ?fp_write:string ->
  ?fp_rename:string ->
  ?counts:int array ->
  Pj_index.Inverted_index.t ->
  string ->
  unit

val write_sharded : Pj_index.Sharded_index.t -> string -> unit
(** Persist a sharded index with its layout. Postings are written once
    from a merged traversal (they are global-doc-id lists, so the
    monolithic section serves every shard through range cursors). It
    hits the ["ondisk.save.write"] / ["ondisk.save.rename"] sites. *)
