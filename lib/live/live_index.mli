(** A writable index: in-memory memtable + stack of sealed immutable
    segments, with tombstone deletes, background compaction, and
    generation-swapped snapshots.

    {2 Structure}

    Documents append through a shared {!Pj_index.Corpus} (one growing
    vocabulary, global doc ids). The newest documents live in a
    {e memtable} backed by {!Pj_index.Postings_builder}: an add appends
    to per-term postings arrays in O(document tokens) — no rebuild —
    and publishes an O(1) doc-id-clamped view of them; a {e flush}
    seals the memtable into an immutable {e segment} — an
    {!Pj_index.Inverted_index} over a contiguous doc-id range, exactly
    like a {!Pj_index.Sharded_index} shard. Deletes only mark a
    {e tombstone}; a background {e merger} domain compacts disjoint
    adjacent small segments (up to [merge_parallelism] pairs per step,
    concurrently) and purges the tombstones it folded in.

    {2 Memory model}

    Every mutation publishes a fresh immutable
    [(segments, memtable, tombstones, generation)] snapshot with one
    [Atomic.set]; a query reads the current snapshot with one
    [Atomic.get] and never takes a lock (the vocabulary's internal
    lock aside) — queries never block on writers, writers never wait
    for queries. Over a quiesced index, search results are
    byte-identical to {!Pj_engine.Searcher.search} on a from-scratch
    {!Pj_index.Inverted_index.build} over the surviving documents:
    the segments and the memtable share the vocabulary and global ids
    and run as one {!Pj_engine.Searcher.search_cascade}.

    {2 Durability}

    With a directory configured, a flush writes the sealed segment as
    an ordinary PJX4 file ({!Pj_ondisk.Writer}, segment-local
    vocabulary and doc ids) and publishes a [MANIFEST] naming every
    segment file with its base and compacted-away ids, the tombstones,
    and the generation — each write is
    tmp+fsync+rename ({!Pj_util.Bytecodec.write_file_atomic}), so a
    crash (or an armed [live.flush] / [live.merge] / [live.manifest]
    failpoint) at any moment leaves the previous manifest and segments
    intact. Recovery ({!open_dir}) replays the manifest. Without a
    WAL, memtable documents added after the last flush are lost (by
    design — [FLUSH] is the durability barrier) and deletes become
    durable at the next flush or merge.

    With [wal = true] the acknowledged-write contract strengthens to:
    {e no acknowledged write is ever lost}. Every add/delete is
    appended to a per-directory write-ahead log ({!Wal}) before the
    call returns, group-committed (one log write — and, under
    [Per_batch], one fsync — per {!add_batch}), rotated away once a
    flush makes its records redundant, and replayed into the memtable
    by {!open_dir} up to the first torn or corrupt record. Recovery
    is byte-identical to the pre-crash acknowledged state: same doc
    and token ids, same search results. Operations that fail (real
    I/O errors or armed [live.wal.append] / [live.wal.fsync] /
    [live.wal.rotate] failpoints) raise before acknowledging, so an
    unacknowledged document is — post-recovery — either absent or
    fully present, never torn. *)

type t

type config = {
  dir : string option;
      (** segment/manifest directory; [None] = memory-only *)
  memtable_capacity : int;
      (** auto-flush once the memtable holds this many documents *)
  merge_threshold : int;
      (** compact while more than this many sealed segments exist *)
  background_merge : bool;
      (** spawn the merger domain (disable for deterministic tests) *)
  mmap_segments : bool;
      (** serve sealed segments zero-copy off their own files'
          block-compressed postings
          ([Pj_ondisk.Mapped_index.segment_index]) instead of
          rebuilding heap indexes at flush/merge/recovery —
          byte-identical results, postings stay on disk. Requires
          [dir]; ignored (heap indexes) for a memory-only index. A
          segment whose view cannot be set up at recovery (an injected
          [live.mmap_open] fault, say) falls back to the heap
          rebuild. *)
  merge_parallelism : int;
      (** how many disjoint adjacent segment pairs one compaction step
          may merge concurrently (each on its own domain); clamped to
          at least 1. The pairs never overlap, so results are
          independent of the parallelism. *)
  wal : bool;
      (** write-ahead-log every add/delete before acknowledging it, and
          replay the log on {!open_dir} — see {2:durability}. Requires
          [dir] (ignored for a memory-only index). When [false], any
          log left in the directory by a previous wal-enabled process
          is removed on open (its records must not leak into an epoch
          that no longer maintains them). *)
  fsync_policy : Wal.fsync_policy;
      (** when WAL commits reach the platter: [Per_batch] (default —
          full durability, one fsync per batch), [Every_ms ms]
          (bounded loss), or [Never] (OS write-through only; the log
          still bounds loss to an OS crash, not a process crash). *)
}

val default_config : config
(** [dir = None], [memtable_capacity = 256], [merge_threshold = 4],
    [background_merge = true], [mmap_segments = false],
    [merge_parallelism = 2], [wal = false],
    [fsync_policy = Wal.Per_batch]. *)

val create : ?config:config -> unit -> t
(** A fresh, empty live index (no recovery — see {!open_dir}). *)

val open_dir : ?config:config -> string -> t
(** Open (or create) a persistent live index rooted at the directory,
    recovering to the last durable state: the manifest is replayed
    (segment files mapped and CRC-checked, their words re-interned in
    document order, reproducing the original doc and token ids, and
    each served off its map or by a rebuilt heap index), then — with
    [wal] — the write-ahead log's intact records
    are re-applied into the memtable and its torn tail discarded.
    Orphan segment files and stale [.tmp] files from interrupted
    operations are removed, manifest or not. [config.dir] is
    overridden by the argument. Raises [Failure "Live: ..."] or
    [Failure "Ondisk: ..."] on a corrupt manifest, segment, or WAL
    header, [Sys_error] on I/O failure. A directory whose manifest is
    v1 (written before segments were PJX4 files) is refused with a
    [Failure] naming the manifest, before anything in the directory is
    touched. *)

val close : t -> unit
(** Stop and join the background merger (idempotent), then close the
    WAL (final fsync — a clean shutdown is a durability barrier
    whatever the [fsync_policy]). In-memory state remains searchable;
    nothing new is flushed. *)

(** {1 Writing} *)

val add : t -> string array -> int
(** Append one document (pre-tokenized words), returning its global
    doc id. Visible to queries immediately; durable before returning
    with a [Per_batch] WAL, otherwise at the next flush. Auto-flushes
    when the memtable reaches capacity. *)

val add_batch : t -> string array list -> int
(** Append many documents under one writer-lock acquisition, returning
    the first assigned id (ids are dense in list order; the next free
    id for an empty batch). One snapshot publication — hence one
    generation observed by queries and [on_swap] hooks — per sealed
    chunk plus one for the residue, instead of one per document. The
    memtable is sealed at every [memtable_capacity] boundary *inside*
    the batch, so a batch larger than the capacity never grows the
    memtable past it. With a WAL the whole batch group-commits: one
    log write (and one [Per_batch] fsync) covers every document. *)

val delete : t -> int -> (unit, [ `Not_found ]) result
(** Tombstone a document: hidden from queries immediately, purged from
    postings by a later merge, durable at the next flush or merge.
    [Error `Not_found] for ids never added, already deleted, or
    already compacted away. *)

val flush : t -> int
(** Seal the memtable into an immutable segment (writing it and a new
    manifest when persistent — the durability barrier for adds and
    deletes) and return the new generation. No-op (returning the
    current generation) when there is nothing to persist. Raises
    [Sys_error] / [Pj_util.Failpoint.Injected] on failure, leaving the
    memtable intact for retry. *)

(** {1 Merging} *)

val merge_now : t -> bool
(** Run one compaction step in the caller (serialized with the
    background merger): up to [merge_parallelism] disjoint cheapest
    adjacent segment pairs are merged concurrently, their tombstones
    purged, and the results installed under one manifest write and one
    generation bump. False when the segment stack is within
    [merge_threshold]. *)

val quiesce : t -> unit
(** Run compactions until the merge policy is satisfied and no
    background step is in flight — after this, state is deterministic
    for a given operation history. *)

(** {1 Searching} *)

val search :
  ?k:int ->
  t ->
  Pj_core.Scoring.t ->
  Pj_matching.Query.t ->
  Pj_engine.Searcher.hit list
(** Top-k over the current snapshot — same contract (and, over a
    quiesced index, the same bytes) as {!Pj_engine.Searcher.search} on
    a from-scratch index over the surviving documents. *)

val search_within :
  ?k:int ->
  deadline:float ->
  t ->
  Pj_core.Scoring.t ->
  Pj_matching.Query.t ->
  (Pj_engine.Searcher.hit list, [ `Timeout ]) result
(** [search] under a monotonic-clock deadline, as
    {!Pj_engine.Searcher.search_within}. *)

(** {1 Observability} *)

val generation : t -> int
(** The current snapshot's generation — bumped by every add, delete,
    flush, and merge, so equal generations imply identical results. *)

val on_swap : t -> (int -> unit) -> unit
(** Register a callback invoked (outside the writer lock) with the new
    generation after every snapshot publication — the result-cache
    invalidation hook. Registration is thread-safe (CAS retry loop) and
    may race with other registrations and with publications; a hook
    starts firing with the first publication after its registration
    lands. *)

type stats = {
  generation : int;
  docs : int;  (** searchable documents = [segment_docs + memtable_docs - tombstones] *)
  total_docs : int;  (** every id ever assigned, compacted or not *)
  segments : int;
  segment_docs : int;  (** live (non-compacted) docs across sealed segments *)
  memtable_docs : int;
  tombstones : int;  (** deleted but not yet compacted *)
  merges : int;
  flushes : int;
  merge_errors : int;  (** background merge attempts that failed *)
  wal_appends : int;  (** records logged through this handle (0 when off) *)
  wal_fsyncs : int;  (** log fsyncs performed through this handle *)
  durable_lag : int;
      (** generations between the current snapshot and the last state
          known durable on disk — 0 means a crash right now loses
          nothing; without a WAL it grows with every unflushed write *)
}

val stats : t -> stats

val corpus : t -> Pj_index.Corpus.t
(** The shared corpus (single source of truth for documents and the
    vocabulary). Do not mutate it directly. *)
