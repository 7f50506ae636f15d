(* Robustness fuzzing for the text substrate. *)

let porter_never_crashes =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:5000 ~name:"porter: arbitrary strings survive"
       QCheck.(string_of_size (QCheck.Gen.int_range 0 30))
       (fun s ->
         let r = Pj_text.Porter.stem s in
         String.length r <= Stdlib.max (String.length s) (String.length s)))

let porter_lowercase_words =
  let lower_gen =
    QCheck.Gen.(
      map
        (fun l -> String.concat "" (List.map (String.make 1) l))
        (list_size (int_range 1 15) (char_range 'a' 'z')))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:5000 ~name:"porter: stems are non-empty prefixesque"
       (QCheck.make ~print:Fun.id lower_gen)
       (fun w ->
         let s = Pj_text.Porter.stem w in
         String.length s > 0
         && String.length s <= String.length w
         && String.for_all (fun c -> c >= 'a' && c <= 'z') s))

let porter_never_grows_much =
  (* Steps 1b/1c can rewrite a suffix (e.g. -iz -> -ize adds a letter
     relative to the truncation point) but never beyond the original
     word plus one character. *)
  let lower_gen =
    QCheck.Gen.(
      map
        (fun l -> String.concat "" (List.map (String.make 1) l))
        (list_size (int_range 3 20) (char_range 'a' 'z')))
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:5000 ~name:"porter: bounded output length"
       (QCheck.make ~print:Fun.id lower_gen)
       (fun w -> String.length (Pj_text.Porter.stem w) <= String.length w + 1))

let tokenizer_never_crashes =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:5000 ~name:"tokenizer: arbitrary bytes survive"
       QCheck.(string_of_size (QCheck.Gen.int_range 0 60))
       (fun s ->
         List.for_all
           (fun tok ->
             String.length tok > 0
             && String.for_all Pj_text.Tokenizer.is_word_char tok)
           (Pj_text.Tokenizer.tokenize s)))

let tokenizer_idempotent =
  (* Re-tokenizing the joined tokens yields the same tokens. *)
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2000 ~name:"tokenizer: stable under rejoin"
       QCheck.(string_of_size (QCheck.Gen.int_range 0 60))
       (fun s ->
         let toks = Pj_text.Tokenizer.tokenize s in
         Pj_text.Tokenizer.tokenize (String.concat " " toks) = toks))

(* The tokenizer's defining form: split on non-word bytes, lowercase,
   trim hyphens/apostrophes from the edges, drop what trims to nothing.
   The production tokenizer trims first and lowercases while copying,
   and streams tokens through [iter]; all three entry points must agree
   with this. *)
let reference_tokens s =
  let trim w =
    let n = String.length w and edge c = c = '-' || c = '\'' in
    let i = ref 0 and j = ref (n - 1) in
    while !i < n && edge w.[!i] do incr i done;
    while !j >= !i && edge w.[!j] do decr j done;
    String.sub w !i (!j - !i + 1)
  in
  String.to_seq s
  |> Seq.map (fun c -> if Pj_text.Tokenizer.is_word_char c then c else ' ')
  |> String.of_seq |> String.split_on_char ' '
  |> List.map (fun w -> trim (String.lowercase_ascii w))
  |> List.filter (fun w -> w <> "")

let tokenizer_matches_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:5000 ~name:"tokenizer: = split/lowercase/trim reference"
       QCheck.(
         make ~print:Print.string
           Gen.(
             string_size ~gen:(oneofl [ 'a'; 'Z'; '7'; '-'; '\''; ' '; '.'; '\xc3' ])
               (int_range 0 60)))
       (fun s ->
         let expected = reference_tokens s in
         let streamed = ref [] in
         Pj_text.Tokenizer.iter (fun t -> streamed := t :: !streamed) s;
         Pj_text.Tokenizer.tokenize s = expected
         && Array.to_list (Pj_text.Tokenizer.tokenize_array s) = expected
         && List.rev !streamed = expected))

let suite =
  [
    tokenizer_matches_reference;
    porter_never_crashes;
    porter_lowercase_words;
    porter_never_grows_much;
    tokenizer_never_crashes;
    tokenizer_idempotent;
  ]
