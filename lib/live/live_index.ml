module IntSet = Set.Make (Int)
module Corpus = Pj_index.Corpus
module Inverted_index = Pj_index.Inverted_index
module Searcher = Pj_engine.Searcher

type config = {
  dir : string option;
  memtable_capacity : int;
  merge_threshold : int;
  background_merge : bool;
  wal : bool;
  fsync_policy : Wal.fsync_policy;
}

let default_config =
  { dir = None; memtable_capacity = 256; merge_threshold = 4;
    background_merge = true; wal = false; fsync_policy = Wal.Per_batch }

(* A sealed, immutable doc-id range with its own inverted index.
   [dead] holds the ids a compaction has already purged from the
   postings; tombstones of later deletions stay in the snapshot-level
   set until the next merge folds them in. *)
type segment = {
  seg_base : int;
  seg_len : int;
  dead : IntSet.t;
  file : string option; (* None in a memory-only index *)
  searcher : Searcher.t;
}

(* What a query observes, all-or-nothing: published with one atomic
   store, never mutated afterwards. Readers pay one [Atomic.get] and
   are immune to every concurrent add/delete/flush/merge. *)
type snapshot = {
  generation : int;
  segments : segment array; (* ascending, tiling [0, mem_base) *)
  mem_base : int;
  mem_len : int;
  mem : Searcher.t option; (* None iff mem_len = 0 *)
  tombstones : IntSet.t;   (* deleted but not yet compacted *)
}

type t = {
  config : config;
  corpus : Corpus.t;
  snap : snapshot Atomic.t;
  (* The memtable's incremental postings: appended to in O(document
     tokens) per add under the writer lock, read lock-free through
     doc-id-clamped provider views (see [Pj_index.Postings_builder]).
     Swapped for a fresh builder when a flush seals the memtable — the
     sealed segment's searcher keeps serving off the frozen one. *)
  mutable memtable : Pj_index.Postings_builder.t;
  (* Writer lock: serializes add/delete/flush and merge installation
     (all snapshot publications). Queries never take it. *)
  writer : Mutex.t;
  (* Merge lock: at most one compaction in flight; held across the
     whole plan/build/install so segment positions stay stable. Taken
     before [writer], never the other way. *)
  merge_lock : Mutex.t;
  hooks : (int -> unit) list Atomic.t;
  file_seq : int Atomic.t;
  adds : int Atomic.t;
  deletes : int Atomic.t;
  flushes : int Atomic.t;
  merges : int Atomic.t;
  merge_errors : int Atomic.t;
  (* True when the on-disk manifest lags the in-memory tombstone set
     (deletes are made durable by the next flush or merge). *)
  mutable durable_dirty : bool;
  (* Write-ahead log — present iff [config.wal] and [config.dir].
     Mutated (append/commit/rotate) only under the writer lock. *)
  mutable wal : Wal.t option;
  (* Highest generation known durable on disk: advanced by manifest
     publications (flush) and by WAL commits that fsynced. The STATS
     [durable_lag] gauge is [generation - last_durable_gen]. *)
  last_durable_gen : int Atomic.t;
  (* Background merger machinery; [m] guards [stopping] and the
     condition. *)
  m : Mutex.t;
  c : Condition.t;
  mutable stopping : bool;
  mutable merger : unit Domain.t option;
}

let with_lock mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let with_writer t f = with_lock t.writer f

let notify t gen = List.iter (fun f -> f gen) (Atomic.get t.hooks)

(* Registration races with other registrations (and with [notify]'s
   reads): a plain get-then-set would let two concurrent registrants
   both read the same list and one overwrite the other's hook. The CAS
   retry loop makes every registration land exactly once. *)
let rec on_swap t f =
  let cur = Atomic.get t.hooks in
  if not (Atomic.compare_and_set t.hooks cur (cur @ [ f ])) then on_swap t f

let generation t = (Atomic.get t.snap).generation

(* --- persistence ------------------------------------------------------- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let segment_filename id = Printf.sprintf "seg-%06d.seg" id

let segment_file_id name =
  try Scanf.sscanf name "seg-%d.seg%!" (fun n -> Some n)
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

(* Write one sealed segment ([Pj_ondisk.Segment]): dead documents are
   written empty, and the manifest entry records which they are, so
   recovery keeps exact live-document accounting. [failpoint] is hit
   before the write and before the rename. *)
let write_segment_file t ~failpoint ~dir ~dead docs =
  let name = segment_filename (Atomic.fetch_and_add t.file_seq 1) in
  Pj_ondisk.Segment.write ~failpoint
    ~skip:(fun id -> IntSet.mem id dead)
    t.corpus docs (Filename.concat dir name);
  name

(* Publish a manifest naming [segments] — caller holds the writer lock,
   so the manifest always matches the snapshot installed right after.
   No-op for a memory-only index. *)
let write_manifest_locked t ~generation ~segments ~tombstones =
  match t.config.dir with
  | None -> ()
  | Some dir ->
      let entries =
        Array.to_list segments
        |> List.map (fun sg ->
               {
                 Manifest.file = Option.get sg.file;
                 base = sg.seg_base;
                 len = sg.seg_len;
                 dead = IntSet.elements sg.dead;
               })
      in
      let vocab = Corpus.vocab t.corpus in
      let words =
        List.init (Pj_text.Vocab.size vocab) (Pj_text.Vocab.word vocab)
      in
      Manifest.write ~dir
        { Manifest.generation; vocab = words; segments = entries;
          tombstones = IntSet.elements tombstones };
      t.durable_dirty <- false

(* --- memtable ---------------------------------------------------------- *)

(* A fresh searchable view over the memtable's incremental postings,
   clamped to the documents committed so far. O(1): the builder holds
   the postings already (appended per add — no rebuild); the view only
   fixes [max_doc], which is what gives in-flight queries snapshot
   isolation against later appends into the same arrays. The corpus is
   the single source of truth: deriving [mem_len] from [Corpus.size]
   (not the previous snapshot) means a failed publication self-heals on
   the next add. *)
let refresh_mem_locked t ~mem_base =
  let mem_len = Corpus.size t.corpus - mem_base in
  if mem_len = 0 then (0, None)
  else
    let idx =
      Pj_index.Postings_builder.index t.memtable t.corpus
        ~max_doc:(mem_base + mem_len - 1)
    in
    (mem_len, Some (Searcher.create idx))

let signal_merger t =
  with_lock t.m (fun () -> Condition.broadcast t.c)

(* --- write-ahead log --------------------------------------------------- *)

(* All three helpers require the writer lock (the WAL handle is
   single-writer) and are no-ops on an index without one. *)

let wal_append t r =
  match t.wal with None -> () | Some w -> Wal.append w r

(* One group commit per acknowledged operation (or per [add_batch]):
   write the buffered records and, when the policy fsynced, advance
   the durable horizon to the generation just published. *)
let wal_commit_locked t =
  match t.wal with
  | None -> ()
  | Some w ->
      if Wal.commit w then
        Atomic.set t.last_durable_gen (Atomic.get t.snap).generation

(* A published manifest makes every logged record redundant — its
   segments and tombstone list now cover them. Called between the
   manifest write and the snapshot publication: if rotation fails the
   flush is still retryable (memtable untouched), and recovery after
   a crash here merely replays stale records, which the id-keyed
   replay skips. *)
let wal_rotate_locked t =
  match t.wal with None -> () | Some w -> Wal.rotate w

(* Seal the memtable into a segment (durably, when a directory is
   configured) and/or persist a tombstone set the manifest lags behind.
   Caller holds the writer lock. Any failure — injected or real —
   leaves the snapshot unpublished, so the memtable stays intact and
   the operation can simply be retried. *)
let flush_locked t =
  let s = Atomic.get t.snap in
  if s.mem_len = 0 then begin
    (* Nothing to seal; a manifest write may still be owed for
       deletes since the last flush. *)
    if t.durable_dirty then begin
      let gen = s.generation + 1 in
      write_manifest_locked t ~generation:gen ~segments:s.segments
        ~tombstones:s.tombstones;
      wal_rotate_locked t;
      Atomic.set t.snap { s with generation = gen };
      Atomic.set t.last_durable_gen gen;
      Atomic.incr t.flushes;
      gen
    end
    else begin
      (* Nothing in the memtable and the manifest is current, so the
         whole state is durable — FLUSH remains a durability barrier
         even when only a merge bumped the generation since. *)
      Atomic.set t.last_durable_gen s.generation;
      s.generation
    end
  end
  else begin
    let searcher = match s.mem with Some sr -> sr | None -> assert false in
    let file =
      match t.config.dir with
      | None -> None
      | Some dir ->
          let docs =
            Corpus.docs_slice t.corpus ~pos:s.mem_base ~len:s.mem_len
          in
          Some
            (write_segment_file t ~failpoint:"live.flush" ~dir
               ~dead:IntSet.empty docs)
    in
    let seg =
      { seg_base = s.mem_base; seg_len = s.mem_len; dead = IntSet.empty;
        file; searcher }
    in
    let segments = Array.append s.segments [| seg |] in
    let gen = s.generation + 1 in
    write_manifest_locked t ~generation:gen ~segments
      ~tombstones:s.tombstones;
    wal_rotate_locked t;
    Atomic.set t.snap
      {
        generation = gen;
        segments;
        mem_base = s.mem_base + s.mem_len;
        mem_len = 0;
        mem = None;
        tombstones = s.tombstones;
      };
    (* Only after the snapshot is safely published: the sealed segment
       keeps serving off the now-frozen builder,
       and the next memtable starts empty. On any failure above the
       builder is untouched, so the flush can simply be retried. *)
    t.memtable <- Pj_index.Postings_builder.create ();
    Atomic.set t.last_durable_gen gen;
    Atomic.incr t.flushes;
    signal_merger t;
    gen
  end

let flush t =
  let gen = with_writer t (fun () -> flush_locked t) in
  notify t gen;
  gen

(* The one ingest path: one snapshot publication per sealed chunk plus
   one for the residue — but never an unbounded memtable. A batch larger
   than [memtable_capacity] seals at every capacity boundary *inside*
   the batch. Returns the first assigned id; ids are dense in list
   order. *)
let add_batch t docs =
  match docs with
  | [] -> Corpus.size t.corpus
  | _ ->
      let first, gen =
        with_writer t (fun () ->
            let first = Corpus.size t.corpus in
            List.iter
              (fun tokens ->
                (* Log before mutating: a failed append leaves the
                   index untouched and the caller sees the error before
                   anything was acknowledged. *)
                wal_append t (Wal.Add { id = Corpus.size t.corpus; tokens });
                let d = Corpus.add_tokens t.corpus tokens in
                Atomic.incr t.adds;
                Pj_index.Postings_builder.add_doc t.memtable d;
                let s = Atomic.get t.snap in
                if
                  Corpus.size t.corpus - s.mem_base
                  >= t.config.memtable_capacity
                then begin
                  (* Capacity reached: publish the chunk and seal it. *)
                  let mem_len, mem =
                    refresh_mem_locked t ~mem_base:s.mem_base
                  in
                  Atomic.set t.snap
                    { s with generation = s.generation + 1; mem_len; mem };
                  ignore (flush_locked t)
                end)
              docs;
            let s = Atomic.get t.snap in
            let gen =
              if Corpus.size t.corpus > s.mem_base + s.mem_len then begin
                let mem_len, mem =
                  refresh_mem_locked t ~mem_base:s.mem_base
                in
                let gen = s.generation + 1 in
                Atomic.set t.snap { s with generation = gen; mem_len; mem };
                gen
              end
              else s.generation
            in
            (* Group commit, durable before acknowledged: one WAL write
               + (per policy) one fsync covers the whole batch — the
               ingest batcher's batch boundary is the durability
               boundary. Chunks sealed in the batch were already
               rotated away by their flush; committing an empty log
               buffer is a no-op. *)
            wal_commit_locked t;
            (first, gen))
      in
      notify t gen;
      first

let add t tokens = add_batch t [ tokens ]

(* A document is gone when it was never added, is already tombstoned,
   or was compacted away by a merge. *)
let find_segment segments id =
  Array.find_opt
    (fun sg -> id >= sg.seg_base && id < sg.seg_base + sg.seg_len)
    segments

let delete t id =
  let r =
    with_writer t (fun () ->
        let s = Atomic.get t.snap in
        if id < 0 || id >= Corpus.size t.corpus then Error `Not_found
        else if IntSet.mem id s.tombstones then Error `Not_found
        else if
          id < s.mem_base
          && (match find_segment s.segments id with
             | Some sg -> IntSet.mem id sg.dead
             | None -> false)
        then Error `Not_found
        else begin
          let gen = s.generation + 1 in
          wal_append t (Wal.Delete id);
          if t.config.dir <> None then t.durable_dirty <- true;
          Atomic.set t.snap
            { s with generation = gen; tombstones = IntSet.add id s.tombstones };
          Atomic.incr t.deletes;
          wal_commit_locked t;
          Ok gen
        end)
  in
  match r with
  | Ok gen ->
      notify t gen;
      Ok ()
  | Error e -> Error e

(* --- merging ----------------------------------------------------------- *)

(* The cheapest adjacent pair, once the sealed stack exceeds the
   threshold — a tiered policy in miniature: repeatedly folding the
   smallest neighbours keeps total merge work O(n log n) in documents
   merged while preserving doc-id order. Ties go to the lowest index.
   Returns the pair's left index. *)
let pick_merge s threshold =
  let n = Array.length s.segments in
  if n <= threshold || n < 2 then None
  else begin
    let live i =
      s.segments.(i).seg_len - IntSet.cardinal s.segments.(i).dead
    in
    let cost i = live i + live (i + 1) in
    let best = ref 0 in
    for i = 1 to n - 2 do
      if cost i < cost !best then best := i
    done;
    Some !best
  end

let merge_needed t =
  pick_merge (Atomic.get t.snap) t.config.merge_threshold <> None

(* One compaction step, in the calling domain: plan the cheapest pair
   under the writer lock, build and write the merged segment outside
   every lock (queries and writers proceed untouched), install it under
   the writer lock with one manifest write and one generation bump.
   Deletions that land in the range *during* the build stay in the
   tombstone set — only the tombstones captured at plan time are folded
   into [dead] and removed. Returns false when no merge is needed. *)
let merge_step t =
  with_lock t.merge_lock (fun () ->
      let plan =
        with_writer t (fun () ->
            let s = Atomic.get t.snap in
            pick_merge s t.config.merge_threshold
            |> Option.map (fun i ->
                   let a = s.segments.(i) and b = s.segments.(i + 1) in
                   let base = a.seg_base and len = a.seg_len + b.seg_len in
                   (* The tombstones this merge purges and makes
                      durable. *)
                   let tomb =
                     IntSet.filter
                       (fun id -> id >= base && id < base + len)
                       s.tombstones
                   in
                   (i, a, b, tomb, Corpus.docs_slice t.corpus ~pos:base ~len)))
      in
      match plan with
      | None -> false
      | Some (i, a, b, tomb, docs) ->
          Pj_util.Failpoint.hit "live.merge";
          let dead = IntSet.union (IntSet.union a.dead b.dead) tomb in
          let file =
            match t.config.dir with
            | None -> None
            | Some dir ->
                Some
                  (write_segment_file t ~failpoint:"live.merge" ~dir ~dead
                     docs)
          in
          (* Adjacent segments tile disjoint ascending doc-id ranges, so
             merging their indexes is a per-term splice of already-sorted
             postings — O(surviving postings), position arrays shared by
             reference — instead of re-tokenizing the whole range. Every
             segment index (a memtable view, a splice result or a
             recovery rebuild) enumerates its terms. The [skip] filter
             also purges postings of docs that died after the source
             segment was built. *)
          let skip =
            if IntSet.is_empty dead then None
            else Some (fun id -> IntSet.mem id dead)
          in
          let merged =
            { seg_base = a.seg_base; seg_len = a.seg_len + b.seg_len; dead;
              file;
              searcher =
                Searcher.create
                  (Inverted_index.concat_adjacent ?skip
                     (Searcher.index a.searcher)
                     (Searcher.index b.searcher)) }
          in
          let gen =
            with_writer t (fun () ->
                let s = Atomic.get t.snap in
                (* Only the merger replaces sealed segments and we hold
                   the merge lock; flush only appends, so the planned
                   position still holds the planned pair. *)
                assert (s.segments.(i) == a && s.segments.(i + 1) == b);
                let n = Array.length s.segments in
                let segments =
                  Array.concat
                    [ Array.sub s.segments 0 i; [| merged |];
                      Array.sub s.segments (i + 2) (n - i - 2) ]
                in
                let tombstones = IntSet.diff s.tombstones tomb in
                let gen = s.generation + 1 in
                write_manifest_locked t ~generation:gen ~segments ~tombstones;
                Atomic.set t.snap
                  { s with generation = gen; segments; tombstones };
                Atomic.incr t.merges;
                gen)
          in
          (* The replaced files are no longer named by any manifest. *)
          (match t.config.dir with
          | Some dir ->
              List.iter
                (fun f ->
                  try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
                (List.filter_map (fun sg -> sg.file) [ a; b ])
          | None -> ());
          notify t gen;
          true)

let merge_now t = merge_step t

(* Run compactions until the policy is satisfied and no background step
   is in flight (the merge lock serializes with the merger domain). *)
let quiesce t = while merge_step t do () done

let merger_loop t =
  let rec loop () =
    Mutex.lock t.m;
    while not t.stopping && not (merge_needed t) do
      Condition.wait t.c t.m
    done;
    let stop = t.stopping in
    Mutex.unlock t.m;
    if not stop then begin
      (try ignore (merge_step t)
       with _ ->
         (* Injected faults and I/O errors leave the pre-merge snapshot
            intact; count, back off briefly (an armed failpoint would
            otherwise hot-spin), retry on the next round. *)
         Atomic.incr t.merge_errors;
         Unix.sleepf 0.05);
      loop ()
    end
  in
  loop ()

(* --- construction ------------------------------------------------------ *)

let make_t config corpus snap =
  {
    config;
    corpus;
    snap = Atomic.make snap;
    memtable = Pj_index.Postings_builder.create ();
    writer = Mutex.create ();
    merge_lock = Mutex.create ();
    hooks = Atomic.make [];
    file_seq = Atomic.make 0;
    adds = Atomic.make 0;
    deletes = Atomic.make 0;
    flushes = Atomic.make 0;
    merges = Atomic.make 0;
    merge_errors = Atomic.make 0;
    durable_dirty = false;
    wal = None;
    last_durable_gen = Atomic.make snap.generation;
    m = Mutex.create ();
    c = Condition.create ();
    stopping = false;
    merger = None;
  }

let spawn_merger t =
  if t.config.background_merge then
    t.merger <- Some (Domain.spawn (fun () -> merger_loop t))

(* Re-apply intact WAL records on recovery. Idempotent by document
   id: the manifest's segments already cover every id below
   [Corpus.size] (a crash between the manifest rename and the log
   rotation leaves such records behind), so only the dense run of
   fresh ids is applied; likewise a delete already tombstoned or
   compacted is a no-op. Token ids come out identical to the
   pre-crash process: the manifest vocabulary replays first (in id
   order), segment documents re-intern next, and the WAL documents
   intern last — the same first-occurrence order that assigned the
   original ids. Runs before the index is shared, so plain stores
   suffice. *)
let replay_wal t w records =
  let adds = ref 0 and dels = ref 0 in
  let applied = ref [] in
  List.iter
    (fun r ->
      match r with
      | Wal.Add { id; tokens } ->
          if id = Corpus.size t.corpus then begin
            let d = Corpus.add_tokens t.corpus tokens in
            Pj_index.Postings_builder.add_doc t.memtable d;
            incr adds;
            applied := r :: !applied
          end
      | Wal.Delete id ->
          let s = Atomic.get t.snap in
          let gone =
            id < 0
            || id >= Corpus.size t.corpus
            || IntSet.mem id s.tombstones
            || (match find_segment s.segments id with
               | Some sg -> IntSet.mem id sg.dead
               | None -> false)
          in
          if not gone then begin
            Atomic.set t.snap
              { s with tombstones = IntSet.add id s.tombstones };
            incr dels;
            applied := r :: !applied
          end)
    records;
  let n = !adds + !dels in
  if n > 0 then begin
    let s = Atomic.get t.snap in
    let mem_len, mem = refresh_mem_locked t ~mem_base:s.mem_base in
    Atomic.set t.snap { s with generation = s.generation + n; mem_len; mem };
    (* Replayed deletes are durable in the log but not yet in the
       manifest; the next flush writes them there. *)
    if !dels > 0 then t.durable_dirty <- true
  end;
  (* Stale (skipped) records mean a crash interrupted a rotation
     after its manifest landed; compact the log now so it holds
     exactly the live memtable + pending deletes again. *)
  if List.length !applied <> List.length records then
    Wal.rewrite w (List.rev !applied);
  Atomic.set t.last_durable_gen (Atomic.get t.snap).generation

(* Attach (or retire) the directory's write-ahead log. [replay] is
   false for a fresh index ([create]): any log on disk belongs to a
   previous incarnation and is discarded. With the WAL disabled an
   existing log file is removed rather than ignored: document ids
   restart reusing its slots, so its records must not survive into an
   epoch that no longer maintains them — the caller has chosen flush
   as the durability barrier. *)
let init_wal t ~replay =
  match t.config.dir with
  | None -> ()
  | Some dir ->
      let remove_log () =
        try Sys.remove (Filename.concat dir Wal.filename)
        with Sys_error _ -> ()
      in
      if not t.config.wal then remove_log ()
      else begin
        if not replay then remove_log ();
        let records, w =
          Wal.open_dir ~dir ~fsync_policy:t.config.fsync_policy
        in
        t.wal <- Some w;
        if replay then replay_wal t w records
      end

let empty_snap =
  {
    generation = 0;
    segments = [||];
    mem_base = 0;
    mem_len = 0;
    mem = None;
    tombstones = IntSet.empty;
  }

let create ?(config = default_config) () =
  (match config.dir with Some dir -> mkdir_p dir | None -> ());
  let t = make_t config (Corpus.create ()) empty_snap in
  init_wal t ~replay:false;
  spawn_merger t;
  t

(* Remove crash leftovers no manifest references: stale [.tmp] files
   from an interrupted atomic publication (tmp-write then rename) and
   segment files orphaned by a flush or merge that never installed.
   The WAL is neither — it matches no pattern and is managed by
   [init_wal]. *)
let cleanup_orphans ~dir ~named =
  Array.iter
    (fun f ->
      let stale_tmp = Filename.check_suffix f ".tmp" in
      let orphan_seg = segment_file_id f <> None && not (List.mem f named) in
      if stale_tmp || orphan_seg then
        try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (Sys.readdir dir)

let open_with_manifest config dir (m : Manifest.t) =
      let corpus = Corpus.create () in
      (* Replaying the persisted vocabulary first reproduces the very
         token ids (hence match payloads) of the original process —
         segment words alone would shift ids wherever a compaction
         dropped a word's only occurrences. *)
      let vocab = Corpus.vocab corpus in
      List.iter
        (fun w -> ignore (Pj_text.Vocab.intern vocab w))
        m.Manifest.vocab;
      let max_file = ref (-1) in
      let segments =
        List.map
          (fun (e : Manifest.entry) ->
            let path = Filename.concat dir e.Manifest.file in
            let mapped = Pj_ondisk.Mapped_index.open_file path in
            if
              Corpus.size (Pj_ondisk.Mapped_index.corpus mapped)
              <> e.Manifest.len
            then
              failwith
                (Printf.sprintf "Live: segment %s disagrees with the manifest"
                   e.Manifest.file);
            Pj_ondisk.Segment.recover mapped corpus;
            (match segment_file_id e.Manifest.file with
            | Some n -> if n > !max_file then max_file := n
            | None -> ());
            let dead = IntSet.of_list e.Manifest.dead in
            (* The file's documents, re-interned into the live corpus,
               are rebuilt into a heap index; the mapping is dropped. *)
            let searcher =
              Searcher.create
                (Inverted_index.build_docs
                   ~skip:(fun id -> IntSet.mem id dead)
                   corpus
                   (Corpus.docs_slice corpus ~pos:e.Manifest.base
                      ~len:e.Manifest.len))
            in
            {
              seg_base = e.Manifest.base;
              seg_len = e.Manifest.len;
              dead;
              file = Some e.Manifest.file;
              searcher;
            })
          m.Manifest.segments
      in
      let snap =
        {
          generation = m.Manifest.generation;
          segments = Array.of_list segments;
          mem_base = Corpus.size corpus;
          mem_len = 0;
          mem = None;
          tombstones = IntSet.of_list m.Manifest.tombstones;
        }
      in
      let t = make_t config corpus snap in
      Atomic.set t.file_seq (!max_file + 1);
      t

let open_dir ?(config = default_config) dir =
  mkdir_p dir;
  let config = { config with dir = Some dir } in
  let t, named =
    match Manifest.read ~dir with
    | None ->
        (* No manifest yet — but the directory may still hold a WAL
           with acknowledged pre-first-flush writes (replayed below)
           and crash leftovers (cleaned below). *)
        (make_t config (Corpus.create ()) empty_snap, [])
    | Some m ->
        ( open_with_manifest config dir m,
          List.map (fun (e : Manifest.entry) -> e.Manifest.file)
            m.Manifest.segments )
  in
  cleanup_orphans ~dir ~named;
  init_wal t ~replay:true;
  spawn_merger t;
  t

let close t =
  let merger =
    with_lock t.m (fun () ->
        t.stopping <- true;
        Condition.broadcast t.c;
        let d = t.merger in
        t.merger <- None;
        d)
  in
  Option.iter Domain.join merger;
  (* After the merger is gone; under the writer lock so an in-flight
     add never races the descriptor. Close is a durability barrier:
     anything still buffered or unsynced is flushed and fsynced. *)
  with_writer t (fun () ->
      match t.wal with
      | Some w ->
          Wal.close w;
          t.wal <- None
      | None -> ())

(* --- search ------------------------------------------------------------ *)

(* Search one immutable snapshot: the sealed segments, then the
   memtable, as one fragment cascade; tombstones are hidden by the
   [accept] filter. Same vocabulary and global doc ids in every
   fragment, so the result is byte-identical to a monolithic search
   over the surviving documents. *)
let search_snapshot ?deadline ~k s scoring q =
  let accept =
    if IntSet.is_empty s.tombstones then None
    else Some (fun doc_id -> not (IntSet.mem doc_id s.tombstones))
  in
  let segments = Array.map (fun sg -> sg.searcher) s.segments in
  let fragments =
    match s.mem with
    | Some sr -> Array.append segments [| sr |]
    | None -> segments
  in
  Searcher.search_cascade ?deadline ?accept ~k fragments scoring q

let search ?(k = 10) t scoring q =
  match search_snapshot ~k (Atomic.get t.snap) scoring q with
  | Ok hits -> hits
  | Error `Timeout -> assert false (* no deadline *)

let search_within ?(k = 10) ~deadline t scoring q =
  search_snapshot ~deadline ~k (Atomic.get t.snap) scoring q

(* --- stats ------------------------------------------------------------- *)

type stats = {
  generation : int;
  docs : int;
  total_docs : int;
  segments : int;
  segment_docs : int;
  memtable_docs : int;
  tombstones : int;
  merges : int;
  flushes : int;
  merge_errors : int;
  wal_appends : int;
  wal_fsyncs : int;
  durable_lag : int;
}

let stats t =
  let s = Atomic.get t.snap in
  let segment_docs =
    Array.fold_left
      (fun acc sg -> acc + sg.seg_len - IntSet.cardinal sg.dead)
      0 s.segments
  in
  let tombstones = IntSet.cardinal s.tombstones in
  {
    generation = s.generation;
    docs = segment_docs + s.mem_len - tombstones;
    total_docs = s.mem_base + s.mem_len;
    segments = Array.length s.segments;
    segment_docs;
    memtable_docs = s.mem_len;
    tombstones;
    merges = Atomic.get t.merges;
    flushes = Atomic.get t.flushes;
    merge_errors = Atomic.get t.merge_errors;
    wal_appends = (match t.wal with Some w -> Wal.appends w | None -> 0);
    wal_fsyncs = (match t.wal with Some w -> Wal.fsyncs w | None -> 0);
    durable_lag = max 0 (s.generation - Atomic.get t.last_durable_gen);
  }

let corpus t = t.corpus
