(** The manifest ("PJMF" v2) — root of a live index directory.

    Names the durable generation, the segment files in doc-id order
    (which must tile [0, total) contiguously) with the ids each has
    compacted away, and the tombstone set. Each segment file is an
    ordinary PJX4 index over local doc ids [0, len); its entry here is
    what places it at [base] and tells its purged documents from
    genuinely empty ones.
    Rewritten crash-safely at every flush and merge install; a segment
    file the manifest does not name is an orphan from an interrupted
    operation and is ignored by recovery. *)

type entry = {
  file : string; (** segment file name, relative to the directory *)
  base : int;
  len : int;
  dead : int list;
      (** ids in [base, base + len) a merge compacted out of the
          segment, ascending — written as empty documents *)
}

type t = {
  generation : int;
  vocab : string list;
      (** every interned word, in id order — replayed before the
          segment documents so recovery reproduces the exact token ids
          (hence match payloads) of the original process, even for
          words whose only occurrences were compacted away *)
  segments : entry list; (** ascending, contiguous from document 0 *)
  tombstones : int list; (** deleted-but-not-yet-compacted ids, ascending *)
}

val filename : string
(** ["MANIFEST"]. *)

val write : dir:string -> t -> unit
(** Publish a new manifest crash-safely (failpoint site
    [live.manifest] before the write and the rename). Raises
    [Sys_error] / [Pj_util.Failpoint.Injected] / [Panicked]; the
    previous manifest survives any of them. *)

val read : dir:string -> t option
(** The current manifest, or [None] when the directory has none (a
    fresh or never-flushed index). Raises [Failure] with a
    ["Live: ..."] message on a malformed file — a v1 manifest included,
    with a message naming the file and its format — and [Sys_error] on
    I/O failure. *)
