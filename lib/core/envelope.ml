type kind =
  | Tent
  | Decay of float
  | Contribution of (int -> float -> int -> float)

type t = {
  kind : kind;
  decay0 : float;
  mutable loc : int array;
  mutable value : float array;
  mutable first : int array;
  stop : int array;
  mutable dom : int array;
  next : int array;
  chosen : int array;
  height : float array;
}

let create kind ~n_terms =
  {
    kind;
    decay0 = (match kind with Decay alpha -> exp (-.alpha *. 0.) | _ -> 1.);
    loc = [||];
    value = [||];
    first = [||];
    stop = Array.make n_terms 0;
    dom = [||];
    next = Array.make n_terms 0;
    chosen = Array.make n_terms 0;
    height = Array.make n_terms 0.;
  }

(* The contribution of a match of term [j] at [l], written out here
   rather than called: the floats stay unboxed in the loops below. A
   match's decay at its own location, the distance the stack pass and
   a query at a match location most often ask for, is the one exp
   [create] took. *)
let[@inline] contribution e j ~loc ~value l =
  match e.kind with
  | Tent -> value -. float_of_int (abs (loc - l))
  | Decay alpha ->
      let d = abs (loc - l) in
      if d = 0 then value *. e.decay0
      else value *. exp (-.alpha *. float_of_int d)
  | Contribution c -> c j value (abs (loc - l))

(* Stack entry [k]'s contribution at [l]. *)
let[@inline] dom_contribution e j k l =
  let i = e.dom.(k) in
  contribution e j ~loc:e.loc.(i) ~value:e.value.(i) l

(* Term [j]'s stack lives in its own index range of [dom] (it never
   holds more than the term's matches), [top] being one past its top.
   A match dominates the top when its contribution there is at least
   as large: ties count as dominance, so the later of two tying matches
   wins (footnote 4). *)
let prepare e ~loc ~value ~first =
  let n = Array.length e.stop in
  let total = first.(n) in
  if Array.length e.dom < total then
    e.dom <- Array.make (Stdlib.max total (2 * Array.length e.dom)) 0;
  e.loc <- loc;
  e.value <- value;
  e.first <- first;
  for j = 0 to n - 1 do
    let a = first.(j) in
    let top = ref a in
    for i = a to first.(j + 1) - 1 do
      let li = loc.(i) and vi = value.(i) in
      if
        !top = a
        || contribution e j ~loc:li ~value:vi li
           >= dom_contribution e j (!top - 1) li
      then begin
        while
          !top > a
          &&
          let lt = loc.(e.dom.(!top - 1)) in
          contribution e j ~loc:li ~value:vi lt
          >= dom_contribution e j (!top - 1) lt
        do
          decr top
        done;
        e.dom.(!top) <- i;
        incr top
      end
    done;
    e.stop.(j) <- !top;
    e.next.(j) <- a
  done

(* The two dominating matches around [l] are compared directly; the
   winner is kept by index with its value as the contribution produced
   it. *)
let advance e j l =
  let a = e.first.(j) and b = e.stop.(j) in
  if a = b then invalid_arg "Envelope.advance: empty dominating list";
  let nx = ref e.next.(j) in
  while !nx < b && e.loc.(e.dom.(!nx)) <= l do
    incr nx
  done;
  e.next.(j) <- !nx;
  if !nx = a || !nx = b then begin
    let k = if !nx = a then a else b - 1 in
    e.chosen.(j) <- e.dom.(k);
    e.height.(j) <- dom_contribution e j k l
  end
  else begin
    let v1 = dom_contribution e j (!nx - 1) l
    and v2 = dom_contribution e j !nx l in
    (* Prefer the succeeding match on ties (footnote 3). *)
    if v2 >= v1 then begin
      e.chosen.(j) <- e.dom.(!nx);
      e.height.(j) <- v2
    end
    else begin
      e.chosen.(j) <- e.dom.(!nx - 1);
      e.height.(j) <- v1
    end
  end

let dominating e j = Array.sub e.dom e.first.(j) (e.stop.(j) - e.first.(j))

type contribution = Match0.t -> int -> float

let pointwise_max c (lst : Match_list.t) l =
  Array.fold_left (fun acc m -> Float.max acc (c m l)) neg_infinity lst

let pointwise_argmax c (lst : Match_list.t) l =
  (* Ties toward the later match, consistent with [prepare]. *)
  let best = ref None in
  Array.iter
    (fun m ->
      let v = c m l in
      match !best with
      | Some (_, bv) when bv > v -> ()
      | _ -> best := Some (m, v))
    lst;
  !best

let interval_pairs c (lst : Match_list.t) ~lo ~hi =
  if Array.length lst = 0 || lo > hi then []
  else begin
    let segments = ref [] in
    let current = ref None in
    for l = lo to hi do
      match pointwise_argmax c lst l with
      | None -> ()
      | Some (m, _) -> begin
          match !current with
          | Some (a, _, m') when Match0.equal m m' ->
              current := Some (a, l, m')
          | Some seg ->
              segments := seg :: !segments;
              current := Some (l, l, m)
          | None -> current := Some (l, l, m)
        end
    done;
    (match !current with
    | Some seg -> segments := seg :: !segments
    | None -> ());
    List.rev !segments
  end
