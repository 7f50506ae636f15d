type t = Searcher.t array

let create index =
  Array.init (Pj_index.Sharded_index.n_shards index) (fun i ->
      Searcher.create (Pj_index.Sharded_index.shard index i))

let search ?(k = 10) t scoring q =
  match Searcher.search_cascade ~k t scoring q with
  | Ok hits -> hits
  | Error `Timeout -> assert false (* no deadline given *)
