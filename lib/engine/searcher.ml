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
        (fun (form, score) ->
          match Pj_text.Vocab.find vocab form with
          | None -> ()
          | Some tok ->
              (* Cursor, not list: a mmap-backed index streams blocks on
                 demand, so a form is "present" iff its fresh cursor
                 sits on a first document. *)
              let c = Pj_index.Inverted_index.cursor t.index tok in
              if Pj_index.Posting_list.current_doc c >= 0 then begin
                Pj_util.Vec.push forms c;
                Pj_util.Vec.push scores score;
                Pj_util.Vec.push payloads tok
              end)
        expansions;
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
  threshold : float Atomic.t option;
  check_deadline : unit -> unit;
  global_bound : float;
      (* the same-for-every-document ceiling from each term's
         [max_score] *)
  live_max : float array;  (* per term: best score of an unexhausted form *)
  bounds : float array;  (* per-term scratch for regional/document bounds *)
  mutable seen_full : bool;
  mutable seen_root : float;
  mutable seen_shared : float;
}

(* Heap order keeping the weakest hit on top; on score ties the larger
   doc id is the weaker. *)
let weaker_first a b =
  match compare b.score a.score with 0 -> a.doc_id <= b.doc_id | c -> c <= 0

let shared r =
  match r.threshold with None -> Float.neg_infinity | Some tau -> Atomic.get tau

(* Raise a shared threshold to [v] (monotone: only ever increases).
   [compare_and_set] on the freshly read box retries cleanly under
   contention from sibling shard domains. *)
let rec atomic_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then atomic_max a v

(* --- bounding -------------------------------------------------------------
   Threshold-aware candidate generation on the skip metadata every
   cursor carries ([block_max_score] / [block_last_doc]):

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
   so form presence — not the tf-impact ceiling — is the per-block
   quantity these bounds are built from. *)

(* Could a document with upper bound [b] still enter the heap? Strict
   against the shared threshold (a sibling shard's tied hit may have a
   larger doc id); tie-losing against our own root (later candidates
   have larger ids). *)
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
    r.live_max.(j) <- 0.;
    for i = 0 to Array.length tc.forms - 1 do
      if
        Pj_index.Posting_list.current_doc tc.forms.(i) >= 0
        && tc.scores.(i) > r.live_max.(j)
      then r.live_max.(j) <- tc.scores.(i)
    done
  done;
  if not (could_win r (Pj_core.Scoring.upper_bound r.scoring r.live_max)) then
    raise Early_stop;
  for j = 0 to Array.length r.terms - 1 do
    let tc = r.terms.(j) in
    let saved = r.live_max.(j) in
    for i = 0 to Array.length tc.forms - 1 do
      if tc.essential.(i) then
        if Pj_index.Posting_list.current_doc tc.forms.(i) < 0 then
          tc.essential.(i) <- false
        else begin
          r.live_max.(j) <- tc.scores.(i);
          if
            not
              (could_win r (Pj_core.Scoring.upper_bound r.scoring r.live_max))
          then tc.essential.(i) <- false
        end
    done;
    r.live_max.(j) <- saved
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
        r.bounds.(j) <- 0.;
        for i = 0 to Array.length tc.forms - 1 do
          if tc.essential.(i) then begin
            let cd = Pj_index.Posting_list.current_doc tc.forms.(i) in
            if cd >= 0 && cd <= h && tc.scores.(i) > r.bounds.(j) then
              r.bounds.(j) <- tc.scores.(i)
          end
        done
      done;
      if could_win r (Pj_core.Scoring.upper_bound r.scoring r.bounds) then false
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

(* Per term, the best expansion score among forms present in [doc_id]
   (the maximum individual match score of the term's match list there,
   without building it), into [r.bounds]; then their upper bound. *)
let doc_bound r doc_id =
  for j = 0 to Array.length r.terms - 1 do
    let tc = r.terms.(j) in
    r.bounds.(j) <- 0.;
    for i = 0 to Array.length tc.forms - 1 do
      if
        Pj_index.Posting_list.current_doc tc.forms.(i) = doc_id
        && tc.scores.(i) > r.bounds.(j)
      then r.bounds.(j) <- tc.scores.(i)
    done
  done;
  Pj_core.Scoring.upper_bound r.scoring r.bounds

(* Could solving [doc_id] change the heap? The proximity-free
   [Scoring.upper_bound] over the forms present in the document, checked
   before any match list is built. Raises [Early_stop] once even the
   per-term maxima cannot reach a score the heap (or a sibling fragment)
   already beats. The shared-threshold checks are strict: it comes from
   hits whose doc ids may be smaller than this fragment's candidates, so
   a tied bound could still win the global tiebreak. *)
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

(* One form's matches at a document: its positions under the form's
   score and token id (one boxed score shared by every match). *)
let form_matches ~score ~payload positions =
  Array.map (fun loc -> { Pj_core.Match0.loc; score; payload }) positions

(* The candidate's match lists, straight off the term cursors: at
   candidate time every essential cursor sits at or past [doc_id], and
   a cursor sits exactly on [doc_id] iff its form occurs there — so the
   positions are already in hand, with no per-form re-seek through the
   index (which on a mmap-backed index would decode blocks from scratch
   for every solved candidate). Non-essential cursors are not driven by
   the alignment; they are dragged up to the candidate first (a no-op
   for a cursor already at or past it). *)
let term_matches tc doc_id =
  let parts = ref [] in
  for i = Array.length tc.forms - 1 downto 0 do
    let c = tc.forms.(i) in
    Pj_index.Posting_list.seek c doc_id;
    if Pj_index.Posting_list.current_doc c = doc_id then
      match Pj_index.Posting_list.current c with
      | None -> ()
      | Some p ->
          parts :=
            form_matches ~score:tc.scores.(i) ~payload:tc.payloads.(i)
              p.Pj_index.Posting.positions
            :: !parts
  done;
  (* A lone form's positions are already the sorted list. *)
  Pj_matching.Match_builder.of_form_matches
    (match !parts with [ one ] -> one | parts -> Array.concat parts)

let problem_at r doc_id = Array.map (fun tc -> term_matches tc doc_id) r.terms

(* Once this fragment holds k hits, its weakest score is a lower bound
   on the *global* k-th score (a subset's k-th best never exceeds the
   union's), so it is safe to publish into the shared threshold for
   sibling shards to prune against. *)
let publish r =
  match r.threshold with
  | Some tau when Pj_util.Heap.length r.heap = r.k -> (
      match Pj_util.Heap.peek r.heap with
      | Some weakest -> atomic_max tau weakest.score
      | None -> ())
  | Some _ | None -> ()

let offer r hit =
  let admitted =
    Pj_util.Heap.length r.heap < r.k
    ||
    match Pj_util.Heap.peek r.heap with
    | Some weakest
      when hit.score > weakest.score
           || (hit.score = weakest.score && hit.doc_id < weakest.doc_id) ->
        ignore (Pj_util.Heap.pop r.heap);
        true
    | Some _ | None -> false
  in
  if admitted then begin
    Pj_util.Heap.push r.heap hit;
    publish r
  end

(* Best valid matchset (the Section VI duplicate handler around the
   family's solver). The deadline is checked before every
   duplicate-unaware solve: when terms share locations, the
   branch-and-bound can need thousands of them for one document. *)
let solve r doc_id =
  let solver p =
    r.check_deadline ();
    Pj_core.Best_join.solve r.scoring p
  in
  match fst (Pj_core.Dedup.best_valid solver (problem_at r doc_id)) with
  | None -> ()
  | Some res ->
      offer r
        {
          doc_id;
          score = res.Pj_core.Naive.score;
          matchset = res.Pj_core.Naive.matchset;
        }

(* Drain the heap weakest-first, consing into best-first order. *)
let drain heap =
  let rec go acc =
    match Pj_util.Heap.pop heap with Some h -> go (h :: acc) | None -> acc
  in
  go []

let search_impl ?deadline ?threshold ?(accept = fun _ -> true) ~k t scoring q
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
        let maxima = Array.map (fun tc -> tc.max_score) terms in
        let r =
          {
            terms;
            scoring;
            k;
            heap = Pj_util.Heap.create ~leq:weaker_first;
            threshold;
            check_deadline;
            global_bound = Pj_core.Scoring.upper_bound scoring maxima;
            live_max = Array.copy maxima;
            bounds = Array.make (Array.length terms) 0.;
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

let search ?(k = 10) t scoring q = search_impl ~k t scoring q

let search_within ?(k = 10) ~deadline t scoring q =
  try Ok (search_impl ~deadline ~k t scoring q) with Expired -> Error `Timeout

let search_fragment ?deadline ?threshold ?accept ?(k = 10) t scoring q =
  try Ok (search_impl ?deadline ?threshold ?accept ~k t scoring q)
  with Expired -> Error `Timeout
