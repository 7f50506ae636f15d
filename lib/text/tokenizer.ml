let is_letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
let is_digit c = c >= '0' && c <= '9'
let is_word_char c = is_letter c || is_digit c || c = '-' || c = '\''

(* Emit the word run [start, stop) trimmed of hyphens/apostrophes at its
   edges ("rock-'n'-roll" keeps internal punctuation, "--" disappears)
   and lowercased — one allocation per token. *)
let emit f text start stop =
  let is_edge c = c = '-' || c = '\'' in
  let i = ref start and j = ref (stop - 1) in
  while !i < stop && is_edge text.[!i] do
    incr i
  done;
  while !j >= !i && is_edge text.[!j] do
    decr j
  done;
  if !j >= !i then begin
    let tok = Bytes.create (!j - !i + 1) in
    for k = 0 to !j - !i do
      Bytes.unsafe_set tok k (Char.lowercase_ascii text.[!i + k])
    done;
    f (Bytes.unsafe_to_string tok)
  end

let iter f text =
  let start = ref (-1) in
  for i = 0 to String.length text - 1 do
    if is_word_char text.[i] then begin
      if !start < 0 then start := i
    end
    else if !start >= 0 then begin
      emit f text !start i;
      start := -1
    end
  done;
  if !start >= 0 then emit f text !start (String.length text)

let tokenize text =
  let tokens = ref [] in
  iter (fun tok -> tokens := tok :: !tokens) text;
  List.rev !tokens

let tokenize_array text =
  let tokens = Pj_util.Vec.create () in
  iter (Pj_util.Vec.push tokens) text;
  Pj_util.Vec.to_array tokens
