type t = { index : Pj_index.Inverted_index.t }

let create index = { index }
let index t = t.index

type hit = {
  doc_id : int;
  score : float;
  matchset : Pj_core.Matchset.t;
}

(* --- document-at-a-time cursors ---------------------------------------- *)

(* One query term = the union of its expansion forms' posting lists,
   traversed as a bank of cursors (never materialized). [max_score] is
   the best expansion score with any posting at all — the term's
   contribution ceiling for max-score pruning. [essential] marks the
   forms that drive the alignment: every form, until a threshold
   demotes the ones that can no longer matter (see [refresh]). *)
type term_cursor = {
  forms : Pj_index.Posting_list.cursor array;
  scores : float array;
  payloads : int array;  (** token id of each form, for match payloads *)
  essential : bool array;
  max_score : float;
}

let term_cursor t (m : Pj_matching.Matcher.t) =
  match m.Pj_matching.Matcher.expansions with
  | None ->
      invalid_arg
        (Printf.sprintf "Searcher: matcher %s has no finite expansions"
           m.Pj_matching.Matcher.name)
  | Some expansions ->
      let vocab =
        Pj_index.Corpus.vocab (Pj_index.Inverted_index.corpus t.index)
      in
      let forms = Pj_util.Vec.create ()
      and scores = Pj_util.Vec.create ()
      and payloads = Pj_util.Vec.create () in
      List.iter
        (fun (tok, score) ->
          (* Cursor, not list: a mmap-backed index streams blocks on
             demand, so a form is "present" iff its fresh cursor
             sits on a first document. *)
          let c = Pj_index.Inverted_index.cursor t.index tok in
          if Pj_index.Posting_list.current_doc c >= 0 then begin
            Pj_util.Vec.push forms c;
            Pj_util.Vec.push scores score;
            Pj_util.Vec.push payloads tok
          end)
        (Pj_matching.Match_builder.form_tokens vocab expansions);
      let scores = Pj_util.Vec.to_array scores in
      {
        forms = Pj_util.Vec.to_array forms;
        scores;
        payloads = Pj_util.Vec.to_array payloads;
        essential = Array.make (Array.length scores) true;
        max_score = Array.fold_left Float.max 0. scores;
      }

(* The per-posting and per-round helpers below are index loops over the
   form banks: no closure, option or escaping [ref] per call (see
   DESIGN §7, hot-path rules). *)

(* Smallest document id under any essential form cursor; -1 once all
   are exhausted. *)
let term_current tc =
  let d = ref (-1) in
  for i = 0 to Array.length tc.forms - 1 do
    if tc.essential.(i) then begin
      let cd = Pj_index.Posting_list.current_doc tc.forms.(i) in
      if cd >= 0 && (!d < 0 || cd < !d) then d := cd
    end
  done;
  !d

let term_seek tc target =
  for i = 0 to Array.length tc.forms - 1 do
    if tc.essential.(i) then Pj_index.Posting_list.seek tc.forms.(i) target
  done

(* Rounds between two clock reads in [align]. *)
let check_interval = 64

(* Leapfrog the essential banks from [start] (where term 0 sits) until
   n consecutive terms agree on one document; -1 when some bank runs
   dry. [check] runs on the first round and then once every
   [check_interval] rounds: a round is one galloping seek per
   essential form, so deadlines still hold through long barren
   stretches of the intersection, overshooting by at most that many
   rounds. With every form essential this is the plain conjunction of
   the terms. *)
let align ~check terms start =
  let n = Array.length terms in
  let target = ref start
  and idx = ref (1 mod n)
  and agreed = ref 1
  and round = ref 0
  and result = ref (if start < 0 then -1 else -2) in
  while !result = -2 do
    if !round mod check_interval = 0 then check ();
    incr round;
    if !agreed = n then result := !target
    else begin
      let tc = terms.(!idx) in
      term_seek tc !target;
      let d = term_current tc in
      if d < 0 then result := -1
      else begin
        if d = !target then incr agreed
        else begin
          target := d;
          agreed := 1
        end;
        idx := (!idx + 1) mod n
      end
    end
  done;
  !result

let with_term_cursors t (q : Pj_matching.Query.t) ~none ~some =
  let n = Array.length q.Pj_matching.Query.matchers in
  if n = 0 then none
  else begin
    let terms = Array.map (term_cursor t) q.Pj_matching.Query.matchers in
    (* A term with no indexed form makes the conjunction empty. *)
    if Array.exists (fun tc -> Array.length tc.forms = 0) terms then none
    else some terms
  end

let candidates t q =
  with_term_cursors t q ~none:[||] ~some:(fun terms ->
      let out = Pj_util.Vec.create () in
      let next () = align ~check:ignore terms (term_current terms.(0)) in
      let current = ref (next ()) in
      while !current >= 0 do
        Pj_util.Vec.push out !current;
        term_seek terms.(0) (!current + 1);
        current := next ()
      done;
      Pj_util.Vec.to_array out)

(* --- one query's traversal --------------------------------------------- *)

exception Expired
exception Early_stop

(* Everything one fragment search carries: the term banks, the bounded
   result heap (a min-heap of size k; the root is the weakest hit), and
   the threshold signature ([seen_*]) the essential sets were last
   classified against. *)
type run = {
  terms : term_cursor array;
  scoring : Pj_core.Scoring.t;
  k : int;
  heap : hit Pj_util.Heap.t;
  threshold : float ref;
      (* the best proven lower bound on the cascade's global k-th
         score, raised by every fragment that holds k hits *)
  check_deadline : unit -> unit;
  global_bound : float;
      (* the same-for-every-document ceiling from each term's
         [max_score] *)
  form_values : float array array;
      (* per term and form: [Scoring.g] of the form's score, computed
         once per run for the bounds and the match lists *)
  zero_values : float array;  (* per term: [Scoring.g] of score 0. *)
  live : int array;  (* per term: its best unexhausted form *)
  picks : int array;  (* per-term scratch for regional/document bounds *)
  values : float array;  (* the picked forms' values *)
  mutable flat : Pj_core.Flat.t option;
      (* the candidates' problems and solver state, made by the run's
         first solve *)
  mutable seen_full : bool;
  mutable seen_root : float;
  mutable seen_shared : float;
}

(* Heap order keeping the weakest hit on top; on score ties the larger
   doc id is the weaker. *)
let weaker_first a b =
  match compare b.score a.score with 0 -> a.doc_id <= b.doc_id | c -> c <= 0

let shared r = !(r.threshold)

(* --- bounding -------------------------------------------------------------
   Threshold-aware candidate generation on the block boundaries every
   cursor reports ([block_last_doc]):

   - Essential-form pruning (max-score over the expansion banks): a
     form whose score ceiling cannot lift any document past the
     current threshold — even with every *other* term at its live
     maximum — stops driving the alignment. Its postings are only
     dragged forward when a candidate is actually solved, so dense
     low-scored expansions no longer force the intersection to crawl
     their lists. Live maxima are exhaustion-aware: a finished
     cursor's score leaves the bound, which tightens the early stop as
     lists drain.

   - Block-granular region skips ("next-shallow" moves): at an aligned
     candidate [d], let [h] be the shallowest [block_last_doc] among
     the driving cursors. Within [d, h] only forms whose cursor already
     sits at or before [h] can occur, so [Scoring.upper_bound] over
     those per-term regional maxima bounds every document in the region
     at once; when it loses to the threshold, every driving cursor
     skips past [h] in one galloping move — on a mmap-backed index that
     crosses block boundaries through the skip table without decoding
     a posting.

   - The per-candidate bound ([worth_solving]): [Scoring.upper_bound]
     over the expansion scores present in the document, checked before
     any match list is built.

   Every prune is sound for the strict shared-threshold rule and the
   tie-aware in-fragment rule (candidates arrive in increasing doc id,
   so a tied bound always loses), so the top-k equals the unpruned
   conjunction's. Match scores are the static expansion-form scores,
   so form presence, not term frequency, is the per-block quantity
   these bounds are built from, and no cursor carries a per-block
   score ceiling. *)

(* [Scoring.upper_bound] with each term at the score of its picked form
   ([-1]: no form, score 0.), from the values computed once per run. *)
let bound r picks =
  for j = 0 to Array.length picks - 1 do
    let i = picks.(j) in
    r.values.(j) <-
      (if i < 0 then r.zero_values.(j) else r.form_values.(j).(i))
  done;
  Pj_core.Scoring.upper_bound r.scoring r.values

(* Could a document with upper bound [b] still enter the heap? Strict
   against the shared threshold (an earlier fragment's tied hit may
   have a larger doc id); tie-losing against our own root (later
   candidates have larger ids). *)
let could_win r b = b >= r.seen_shared && ((not r.seen_full) || b > r.seen_root)

(* Take a fresh threshold signature; true when it moved since the last
   classification. *)
let threshold_moved r =
  let full = Pj_util.Heap.length r.heap = r.k in
  let root =
    match Pj_util.Heap.peek r.heap with
    | Some w -> w.score
    | None -> Float.neg_infinity
  in
  let sh = shared r in
  if full <> r.seen_full || root <> r.seen_root || sh <> r.seen_shared then begin
    r.seen_full <- full;
    r.seen_root <- root;
    r.seen_shared <- sh;
    true
  end
  else false

(* Recompute live maxima and re-classify the form banks against the
   moved threshold; [Early_stop] when even the live maxima cannot win.
   Essential sets only shrink (thresholds are monotone), and whenever
   the traversal may continue, each term's top live form is essential
   — its per-form bound *is* the global live bound. *)
let refresh r =
  for j = 0 to Array.length r.terms - 1 do
    let tc = r.terms.(j) in
    let best = ref 0. in
    r.live.(j) <- -1;
    for i = 0 to Array.length tc.forms - 1 do
      if
        Pj_index.Posting_list.current_doc tc.forms.(i) >= 0
        && tc.scores.(i) > !best
      then begin
        best := tc.scores.(i);
        r.live.(j) <- i
      end
    done
  done;
  if not (could_win r (bound r r.live)) then raise Early_stop;
  for j = 0 to Array.length r.terms - 1 do
    let tc = r.terms.(j) in
    let saved = r.live.(j) in
    for i = 0 to Array.length tc.forms - 1 do
      if tc.essential.(i) then
        if Pj_index.Posting_list.current_doc tc.forms.(i) < 0 then
          tc.essential.(i) <- false
        else begin
          r.live.(j) <- i;
          if not (could_win r (bound r r.live)) then tc.essential.(i) <- false
        end
    done;
    r.live.(j) <- saved
  done

(* Shallowest block boundary among the driving cursors; [max_int] when
   none reports one. *)
let shallowest_block_end terms =
  let h = ref max_int in
  for j = 0 to Array.length terms - 1 do
    let tc = terms.(j) in
    for i = 0 to Array.length tc.forms - 1 do
      let c = tc.forms.(i) in
      if tc.essential.(i) && Pj_index.Posting_list.current_doc c >= 0 then begin
        let bl = Pj_index.Posting_list.block_last_doc c in
        if bl >= 0 && bl < !h then h := bl
      end
    done
  done;
  !h

(* The next-shallow move at aligned candidate [d]. Only meaningful once
   some threshold exists; true after skipping every driving cursor past
   the region. *)
let region_skip r d =
  if not (r.seen_full || r.seen_shared > Float.neg_infinity) then false
  else begin
    let h = shallowest_block_end r.terms in
    if h = max_int || h < d then false
    else begin
      for j = 0 to Array.length r.terms - 1 do
        let tc = r.terms.(j) in
        let best = ref 0. in
        r.picks.(j) <- -1;
        for i = 0 to Array.length tc.forms - 1 do
          if tc.essential.(i) then begin
            let cd = Pj_index.Posting_list.current_doc tc.forms.(i) in
            if cd >= 0 && cd <= h && tc.scores.(i) > !best then begin
              best := tc.scores.(i);
              r.picks.(j) <- i
            end
          end
        done
      done;
      if could_win r (bound r r.picks) then false
      else begin
        for j = 0 to Array.length r.terms - 1 do
          term_seek r.terms.(j) (h + 1)
        done;
        true
      end
    end
  end

(* Advance from [start] to the next aligned candidate that survives the
   region bound, or -1. The deadline is checked on every iteration: one
   round here may gallop across an arbitrary doc-id range, and must not
   outlive the budget doing so. *)
let next_candidate r start =
  let result = ref (-2) and start = ref start in
  while !result = -2 do
    let d = align ~check:r.check_deadline r.terms !start in
    if d < 0 then result := -1
    else begin
      r.check_deadline ();
      if threshold_moved r then begin
        refresh r;
        (* The banks may have shrunk under [d]; realign on the
           surviving essential forms. *)
        start := term_current r.terms.(0)
      end
      else if region_skip r d then start := term_current r.terms.(0)
      else result := d
    end
  done;
  !result

(* Per term, the best-scored form present in [doc_id] (the maximum
   individual match score of the term's match list there, without
   building it); then their upper bound. *)
let doc_bound r doc_id =
  for j = 0 to Array.length r.terms - 1 do
    let tc = r.terms.(j) in
    let best = ref 0. in
    r.picks.(j) <- -1;
    for i = 0 to Array.length tc.forms - 1 do
      if
        Pj_index.Posting_list.current_doc tc.forms.(i) = doc_id
        && tc.scores.(i) > !best
      then begin
        best := tc.scores.(i);
        r.picks.(j) <- i
      end
    done
  done;
  bound r r.picks

(* Could solving [doc_id] change the heap? The proximity-free
   [Scoring.upper_bound] over the forms present in the document, checked
   before any match list is built. Raises [Early_stop] once even the
   per-term maxima cannot reach a score the heap (or an earlier
   fragment) already beats. The shared-threshold checks are strict: it
   comes from hits whose doc ids may be larger than this fragment's
   candidates, so a tied bound could still win the global tiebreak. *)
let worth_solving r doc_id =
  let tau = shared r in
  if r.global_bound < tau then raise Early_stop;
  if Pj_util.Heap.length r.heap < r.k then
    tau = Float.neg_infinity || doc_bound r doc_id >= tau
  else
    match Pj_util.Heap.peek r.heap with
    | None -> true
    | Some weakest ->
        (* Candidates arrive in increasing doc id, so a tied bound can
           never win the tiebreak either. *)
        if r.global_bound <= weakest.score then raise Early_stop;
        let bound = doc_bound r doc_id in
        bound >= tau
        && (bound > weakest.score
           || (bound = weakest.score && doc_id < weakest.doc_id))

(* --- solving ------------------------------------------------------------ *)

(* The candidate's match lists, straight off the term cursors into the
   run's workspace: at candidate time every essential cursor sits at or
   past [doc_id], and a cursor sits exactly on [doc_id] iff its form
   occurs there — so the positions are already in hand, with no
   per-form re-seek through the index (which on a mmap-backed index
   would decode blocks from scratch for every solved candidate).
   Non-essential cursors are not driven by the alignment; they are
   dragged up to the candidate first (a no-op for a cursor already at
   or past it). *)
let load_problem r doc_id =
  let t =
    match r.flat with
    | Some t -> t
    | None ->
        let t =
          Pj_core.Flat.create r.scoring ~n_terms:(Array.length r.terms)
        in
        r.flat <- Some t;
        t
  in
  Pj_core.Flat.clear t;
  for j = 0 to Array.length r.terms - 1 do
    let tc = r.terms.(j) in
    for i = 0 to Array.length tc.forms - 1 do
      let c = tc.forms.(i) in
      Pj_index.Posting_list.seek c doc_id;
      if Pj_index.Posting_list.current_doc c = doc_id then
        match Pj_index.Posting_list.current c with
        | None -> ()
        | Some p ->
            Pj_core.Flat.add_form t p.Pj_index.Posting.positions ~form:i
              ~scores:tc.scores ~values:r.form_values.(j) ~payloads:tc.payloads
    done;
    Pj_core.Flat.close_term t
  done;
  t

(* Once this fragment holds k hits, its weakest score is a lower bound
   on the *global* k-th score (a subset's k-th best never exceeds the
   union's), so it is safe to publish into the shared threshold for
   later fragments to prune against. *)
let publish r =
  if Pj_util.Heap.length r.heap = r.k then
    match Pj_util.Heap.peek r.heap with
    | Some weakest when weakest.score > !(r.threshold) ->
        r.threshold := weakest.score
    | Some _ | None -> ()

(* Would a hit on [doc_id] scoring [score] enter the heap? Asked before
   its matchset is built, so a losing candidate builds none. *)
let[@inline] admits r doc_id score =
  Pj_util.Heap.length r.heap < r.k
  ||
  match Pj_util.Heap.peek r.heap with
  | Some weakest ->
      score > weakest.score
      || (score = weakest.score && doc_id < weakest.doc_id)
  | None -> false

let admit r hit =
  if Pj_util.Heap.length r.heap = r.k then ignore (Pj_util.Heap.pop r.heap);
  Pj_util.Heap.push r.heap hit;
  publish r

(* Best valid matchset: the family's solver on the run's workspace,
   whose answer stands when no two members share a location (nothing
   valid beats the unconstrained optimum); otherwise the Section VI
   branch-and-bound below it, over the problem as match lists. The
   deadline is checked before every duplicate-unaware solve: when terms
   share locations, the branch-and-bound can need thousands of them for
   one document. *)
let solve r doc_id =
  r.check_deadline ();
  let t = load_problem r doc_id in
  if Pj_core.Best_join.run t then
    if Pj_core.Flat.best_is_valid t then begin
      let score = t.Pj_core.Flat.result.(0) in
      if admits r doc_id score then
        admit r { doc_id; score; matchset = Pj_core.Flat.matchset t }
    end
    else begin
      let solver p =
        r.check_deadline ();
        Pj_core.Flat.load t p;
        if Pj_core.Best_join.run t then Some (Pj_core.Flat.result t) else None
      in
      match
        Pj_core.Dedup.resume solver (Pj_core.Flat.problem t)
          ~root:(Pj_core.Flat.result t)
      with
      | None, _ -> ()
      | Some res, _ ->
          let score = res.Pj_core.Naive.score in
          if admits r doc_id score then
            admit r { doc_id; score; matchset = res.Pj_core.Naive.matchset }
    end

(* Drain the heap weakest-first, consing into best-first order. *)
let drain heap =
  let rec go acc =
    match Pj_util.Heap.pop heap with Some h -> go (h :: acc) | None -> acc
  in
  go []

let search_impl ?deadline ~threshold ?(accept = fun _ -> true) ~k t scoring q
    =
  if k < 0 then invalid_arg "Searcher.search: negative k";
  let check_deadline =
    match deadline with
    | None -> ignore
    | Some d ->
        fun () -> if Pj_util.Timing.monotonic_now () > d then raise Expired
  in
  (* A deadline already in the past times out before anything else. *)
  check_deadline ();
  if k = 0 then []
  else
    with_term_cursors t q ~none:[] ~some:(fun terms ->
        let n = Array.length terms in
        let g = Pj_core.Scoring.g scoring in
        let r =
          {
            terms;
            scoring;
            k;
            heap = Pj_util.Heap.create ~leq:weaker_first;
            threshold;
            check_deadline;
            global_bound =
              Pj_core.Scoring.upper_bound scoring
                (Array.mapi (fun j tc -> g j tc.max_score) terms);
            form_values =
              Array.mapi (fun j tc -> Array.map (g j) tc.scores) terms;
            zero_values = Array.init n (fun j -> g j 0.);
            live = Array.make n (-1);
            picks = Array.make n (-1);
            values = Array.make n 0.;
            flat = None;
            seen_full = false;
            seen_root = Float.neg_infinity;
            seen_shared = Float.neg_infinity;
          }
        in
        (try
           let current = ref (next_candidate r (term_current terms.(0))) in
           while !current >= 0 do
             let doc_id = !current in
             check_deadline ();
             (* Tombstoned documents are invisible: skipped before any
                solving or threshold publication, exactly as if their
                postings were absent. *)
             if accept doc_id && worth_solving r doc_id then solve r doc_id;
             term_seek terms.(0) (doc_id + 1);
             current := next_candidate r (term_current terms.(0))
           done
         with Early_stop -> ());
        drain r.heap)

let search_fragment ?deadline ?accept ?(k = 10) t scoring q =
  try
    Ok
      (search_impl ?deadline ~threshold:(ref Float.neg_infinity) ?accept ~k t
         scoring q)
  with Expired -> Error `Timeout

let search ?(k = 10) t scoring q =
  match search_fragment ~k t scoring q with
  | Ok hits -> hits
  | Error `Timeout -> assert false (* no deadline *)

let search_within ?(k = 10) ~deadline t scoring q =
  search_fragment ~deadline ~k t scoring q

(* Global order on hits: score descending, ties toward smaller doc id —
   the order [drain] returns one fragment's hits in. *)
let compare_hits a b =
  match Float.compare b.score a.score with
  | 0 -> Int.compare a.doc_id b.doc_id
  | c -> c

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

(* Fragments run one after another against one threshold, so each
   starts from the best bound the earlier ones proved. The global top-k
   is a subset of the union of the fragments' top-k lists, so one sort
   of their concatenation merges exactly. *)
let search_cascade ?deadline ?accept ~k fragments scoring q =
  if k < 0 then invalid_arg "Searcher.search_cascade: negative k";
  if k = 0 then Ok []
  else begin
    let threshold = ref Float.neg_infinity in
    match
      List.concat_map
        (fun t -> search_impl ?deadline ~threshold ?accept ~k t scoring q)
        (Array.to_list fragments)
    with
    | hits -> Ok (take k (List.sort compare_hits hits))
    | exception Expired -> Error `Timeout
  end
