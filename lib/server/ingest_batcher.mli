(** Group commit for ADDDOC acknowledgements.

    Connection readers hand their stemmed documents to {!enqueue};
    while one batch is committing, new documents pile up, and the next
    commit drains everything pending when it starts executing into a
    single {!Pj_live.Live_index.add_batch}, run through one
    {!Worker_pool.submit_task}. A burst of N concurrent ADDDOCs costs
    one writer-lock acquisition, one queue slot and one generation bump
    instead of N of each — then every submitter gets its own
    [ADDED <id>] line (ids dense in arrival order). Under no
    contention a batch holds exactly one document. No thread leads a
    batch or waits for one. *)

type t

val create :
  on_batch:(size:int -> unit) -> Worker_pool.t -> Pj_live.Live_index.t -> t
(** [on_batch ~size] fires once per successfully committed batch, on
    the worker domain that committed it — the observability hook
    behind STATS [ingest_batches=]/[batched_adds=]. If it raises,
    every document of the batch is acknowledged [ERR]. *)

val enqueue : t -> string array -> (string -> unit) -> unit
(** Submit one document (pre-stemmed tokens); its acknowledgement goes
    to the completion exactly once, never under the batcher's lock:
    [ADDED <id>] on success, [BUSY] when the worker queue refused the
    batch, [ERR ...] when the batch failed. Never blocks. Safe to call
    from any number of threads. *)

val submit : t -> string array -> string
(** {!enqueue} and block until the acknowledgement. *)
