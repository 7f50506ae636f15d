(** Write-ahead log for the live index: no acknowledged write is ever
    lost.

    The memtable acknowledges ADDDOC/DELDOC long before a flush seals
    them into a segment, so without a log a crash between flushes
    silently drops acknowledged writes. The WAL closes that gap with a
    single append-only file ([WAL] in the live directory) that records
    every add and delete {e before} the operation is acknowledged;
    {!Live_index.open_dir} replays it into the memtable on recovery.

    {2 Format}

    Header: the magic ["PJWL"] followed by a version varint. Then a
    sequence of records, each framed as

    {v [len : 4 bytes LE] [payload : len bytes] [crc32(payload) : 4 bytes LE] v}

    where the payload is a record-type varint (1 = add, 2 = delete),
    the document id as a varint, and — for adds — the token count
    followed by each token as a length-prefixed string. The frame
    makes the {e torn tail} after a crash detectable: {!replay} scans
    records in order and stops at the first truncated, oversized or
    CRC-mismatching frame; everything before it is intact (CRC-32
    per record), everything after it was never acknowledged-durable
    and is discarded when the log is reopened for append.

    {2 Group commit}

    {!append} only buffers; {!commit} writes the buffer and fsyncs
    according to the {!fsync_policy}. The live index calls [commit]
    once per {!Live_index.add_batch} — the ingest batcher's batch
    boundary — so durability costs one [fsync] per batch, not per
    document.

    {2 Rotation}

    A flush makes the log's contents redundant (the manifest and its
    segments now cover every logged operation), so
    {!Live_index.flush_locked} calls {!rotate}, which truncates the
    file back to a bare header. Replay is idempotent by document id
    (records for already-durable ids are skipped), so a crash between
    the manifest rename and the truncation merely replays no-ops. *)

type fsync_policy =
  | Per_batch  (** fsync on every {!commit} — full durability. *)
  | Every_ms of int
      (** fsync at most once per interval (piggybacked on commits);
          bounded data loss, higher throughput on slow disks. *)
  | Never  (** write-through to the OS only; durability at flush. *)

type record =
  | Add of { id : int; tokens : string array }
  | Delete of int

type t

val filename : string
(** ["WAL"] — the log's basename inside the live directory. *)

val fsync_policy_of_string : string -> (fsync_policy, string) result
(** Parse the CLI spelling: ["per-batch"], ["never"], or
    ["every:<ms>"] with a positive interval. *)

val open_dir : dir:string -> fsync_policy:fsync_policy -> record list * t
(** Replay-then-open: returns every intact record (for the caller to
    re-apply) and the log opened for append positioned after the last
    intact record — the torn tail, if any, is truncated away. A
    missing, empty or header-torn file starts a fresh log; a file
    whose header bytes are present but wrong raises [Failure]
    (external corruption, not a crash artifact). *)

val append : t -> record -> unit
(** Buffer a record (failpoint [live.wal.append]). Nothing reaches
    the file until {!commit} or {!rewrite}. *)

val commit : t -> bool
(** Write buffered records to the file and fsync per the policy
    (failpoint [live.wal.fsync]); [true] iff an fsync was performed,
    meaning everything appended so far is durable. No-op on an empty
    buffer. *)

val rotate : t -> unit
(** Truncate back to a bare header and fsync (failpoint
    [live.wal.rotate]); any uncommitted buffered records are dropped
    — at the flush call site they are covered by the manifest being
    published. *)

val rewrite : t -> record list -> unit
(** Rotate, append the given records and commit with a forced fsync —
    used after recovery to compact a log whose prefix was made
    redundant by a manifest the crash interrupted before rotation. *)

val appends : t -> int
(** Records appended through this handle (not counting replayed or
    {!rewrite}-restored ones). *)

val fsyncs : t -> int
(** Fsyncs performed through this handle. *)

val close : t -> unit
(** Final best-effort commit + fsync, then close the descriptor. *)
