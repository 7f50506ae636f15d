type t = {
  index : Pj_index.Sharded_index.t;
  fragments : Searcher.t array;
  sites : string array;
      (* Pre-built failpoint site names ("shard.0", "shard.1", ...):
         the degraded path hits one per shard per query, and the
         disabled fast path must not allocate. *)
}

let create index =
  let n = Pj_index.Sharded_index.n_shards index in
  {
    index;
    fragments =
      Array.init n (fun i ->
          Searcher.create (Pj_index.Sharded_index.shard index i));
    sites = Array.init n (Printf.sprintf "shard.%d");
  }

let sharded_index t = t.index
let n_shards t = Array.length t.fragments

(* Global order on hits: score descending, ties toward smaller doc id —
   the same order [Searcher.search] drains its heap in. *)
let compare_hits (a : Searcher.hit) (b : Searcher.hit) =
  match compare b.Searcher.score a.Searcher.score with
  | 0 -> compare a.Searcher.doc_id b.Searcher.doc_id
  | c -> c

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

(* Each fragment returns its own top-k; the global top-k is a subset of
   the union (at most S*k hits), so one sort of the concatenation
   merges exactly. *)
let merge ~k per_shard =
  List.concat per_shard |> List.sort compare_hits |> take k

let search_impl ?deadline ~k t scoring q =
  if k < 0 then invalid_arg "Shard_searcher.search: negative k";
  if k = 0 then Ok []
  else begin
    let threshold = Atomic.make Float.neg_infinity in
    (* One domain per shard, but never more than the machine offers:
       surplus shards run sequentially inside a chunk, where the shared
       threshold cascades — a finished shard's k-th score lets the next
       one prune (often early-stop) from its very first candidate. *)
    let domains =
      Stdlib.min (Array.length t.fragments)
        (Pj_util.Parallel.recommended_domains ())
    in
    let results =
      Pj_util.Parallel.map_array ~domains
        (fun fragment ->
          Searcher.search_fragment ?deadline ~threshold ~k fragment scoring q)
        t.fragments
    in
    if Array.exists (function Error `Timeout -> true | Ok _ -> false) results
    then Error `Timeout
    else
      Ok
        (merge ~k
           (Array.to_list results
           |> List.map (function Ok hits -> hits | Error `Timeout -> [])))
  end

type degraded = { hits : Searcher.hit list; failed : int list }

(* Fault-isolated scatter-gather: every per-shard leg runs under a
   catch-all (plus its failpoint site), so a raising or deadline-blown
   shard contributes nothing instead of poisoning the whole query. The
   healthy path is byte-identical to [search_impl]: same fragments,
   same shared threshold, same merge.

   Soundness note on the shared threshold: a shard that fails at entry
   (the failpoint site fires before its scan starts) never publishes,
   so the surviving shards' merged top-k equals the monolithic top-k
   over the surviving doc ranges exactly — the oracle the degradation
   tests assert. A shard dying mid-scan may already have published a
   bound from its own (now discarded) documents; surviving hits are
   still genuine documents with exact scores, but documents weaker
   than the dead shard's bound may have been pruned, so the guarantee
   degrades from "exact top-k of survivors" to "genuine, exactly
   scored hits in order". *)
let search_degraded ?(k = 10) ~deadline t scoring q =
  if k < 0 then invalid_arg "Shard_searcher.search_degraded: negative k";
  if k = 0 then Ok { hits = []; failed = [] }
  else begin
    let threshold = Atomic.make Float.neg_infinity in
    let n = Array.length t.fragments in
    let domains = Stdlib.min n (Pj_util.Parallel.recommended_domains ()) in
    let legs =
      Pj_util.Parallel.map_array ~domains
        (fun i ->
          match
            Pj_util.Failpoint.hit t.sites.(i);
            Searcher.search_fragment ~deadline ~threshold ~k t.fragments.(i)
              scoring q
          with
          | Ok hits -> `Hits hits
          | Error `Timeout -> `Expired
          | exception _ -> `Raised)
        (Array.init n Fun.id)
    in
    let all_expired = Array.for_all (fun leg -> leg = `Expired) legs in
    if all_expired then Error `Timeout
    else begin
      let failed = ref [] and per_shard = ref [] in
      for i = n - 1 downto 0 do
        match legs.(i) with
        | `Hits hits -> per_shard := hits :: !per_shard
        | `Expired | `Raised -> failed := i :: !failed
      done;
      Ok { hits = merge ~k !per_shard; failed = !failed }
    end
  end

let search ?(k = 10) t scoring q =
  match search_impl ~k t scoring q with
  | Ok hits -> hits
  | Error `Timeout -> assert false (* no deadline given *)

let search_within ?(k = 10) ~deadline t scoring q =
  search_impl ~deadline ~k t scoring q
