(* Validation of BENCHMARK.json against the benchmark contract: the
   exact key sets, name/unit/path alphabets and lengths, counts, bounds,
   the mandatory setup_s metric, and — specific to this benchmark — that the command's constants parse into
   a {!Config.t}. *)

let ( let* ) = Result.bind

let check cond msg = if cond then Ok () else Error msg

let all_chars ok s = String.for_all ok s

let is_alnum c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false

let valid_name s =
  String.length s >= 1
  && String.length s <= 64
  && is_alnum s.[0]
  && all_chars (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

let valid_unit s =
  String.length s >= 1
  && String.length s <= 16
  && all_chars
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s

let valid_path s =
  String.length s >= 1
  && String.length s <= 200
  && s.[0] <> '/'
  && all_chars (fun c -> is_alnum c || c = '_' || c = '.' || c = '-' || c = '/') s
  && not (List.mem ".." (String.split_on_char '/' s))

let keys_exactly what expected = function
  | Json.Obj kv ->
      let got = List.sort compare (List.map fst kv) in
      check
        (got = List.sort compare expected)
        (Printf.sprintf "%s: keys must be exactly %s" what
           (String.concat ", " expected))
  | _ -> Error (what ^ ": not an object")

let rec iter_result f = function
  | [] -> Ok ()
  | x :: rest ->
      let* () = f x in
      iter_result f rest

let str what = function Json.Str s -> Ok s | _ -> Error (what ^ ": not a string")
let arr what = function Json.Arr l -> Ok l | _ -> Error (what ^ ": not a list")
let strings what l =
  List.fold_right
    (fun v acc ->
      let* acc = acc in
      let* s = str what v in
      Ok (s :: acc))
    l (Ok [])

let field k v = Option.get (Json.member k v)

let metric_list what ~min ~max ~keys v =
  let* items = arr what v in
  let* () =
    check
      (List.length items >= min && List.length items <= max)
      (Printf.sprintf "%s: %d to %d entries" what min max)
  in
  let* () =
    iter_result
      (fun m ->
        let* () = keys_exactly what keys m in
        let* name = str what (field "name" m) in
        let* u = str what (field "unit" m) in
        let* better = str what (field "better" m) in
        let* () = check (valid_name name) (what ^ ": bad name " ^ name) in
        let* () = check (valid_unit u) (what ^ ": bad unit for " ^ name) in
        check
          (better = "lower" || better = "higher")
          (what ^ ": better must be lower or higher for " ^ name))
      items
  in
  Ok items

let validate json =
  let* () =
    keys_exactly "BENCHMARK.json"
      [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ]
      json
  in
  let* paths = arr "paths" (field "paths" json) in
  let* paths = strings "paths" paths in
  let* () =
    check
      (List.length paths >= 1 && List.length paths <= 16)
      "paths: 1 to 16 directories"
  in
  let* () = check (List.for_all valid_path paths) "paths: bad directory name" in
  let* command = arr "command" (field "command" json) in
  let* () =
    check
      (List.length command >= 1 && List.length command <= 32)
      "command: 1 to 32 strings"
  in
  let* command = strings "command" command in
  let* () =
    check
      (List.for_all
         (fun s ->
           String.length s <= 200
           && (s = "" || s.[0] <> '/')
           && not (List.mem ".." (String.split_on_char '/' s)))
         command)
      "command: strings must be short, relative and stay inside the repo"
  in
  let* run_seconds =
    match field "run_seconds" json with
    | Json.Num f when Float.is_integer f && f >= 1. && f <= 60. -> Ok f
    | _ -> Error "run_seconds: a whole number from 1 to 60"
  in
  let* workloads = arr "workloads" (field "workloads" json) in
  let* () =
    check
      (List.length workloads >= 2 && List.length workloads <= 8)
      "workloads: 2 to 8"
  in
  let* wnames =
    List.fold_right
      (fun w acc ->
        let* acc = acc in
        let* () = keys_exactly "workload" [ "name"; "why" ] w in
        let* name = str "workload" (field "name" w) in
        let* why = str "workload" (field "why" w) in
        let* () = check (valid_name name) ("workload: bad name " ^ name) in
        let* () =
          check
            (why <> "" && String.length why <= 200 && not (String.contains why '\n'))
            ("workload: why must be one line of at most 200 characters: " ^ name)
        in
        Ok (name :: acc))
      workloads (Ok [])
  in
  let* e2e =
    metric_list "end_to_end" ~min:1 ~max:16
      ~keys:[ "name"; "unit"; "better"; "bound" ]
      (field "end_to_end" json)
  in
  let* () =
    iter_result
      (fun m ->
        match field "bound" m with
        | Json.Num b when b > 0. && b <= 0.25 -> Ok ()
        | _ -> Error "end_to_end: bound must be in (0, 0.25]")
      e2e
  in
  let* () =
    check
      (List.exists
         (fun m ->
           field "name" m = Json.Str "setup_s"
           && field "unit" m = Json.Str "s"
           && field "better" m = Json.Str "lower")
         e2e)
      "end_to_end: setup_s (unit s, better lower) is required"
  in
  let* layer =
    metric_list "per_layer" ~min:1 ~max:128 ~keys:[ "name"; "unit"; "better" ]
      (field "per_layer" json)
  in
  let names =
    wnames
    @ List.map (fun m -> match field "name" m with Json.Str s -> s | _ -> "") (e2e @ layer)
  in
  let* () =
    check
      (List.length (List.sort_uniq compare names) = List.length names)
      "names must be used once"
  in
  (* The workloads must be this benchmark's, and the constants in the
     command must form a valid configuration for each of them. *)
  let* () =
    check
      (List.sort compare wnames = List.sort compare Config.workloads)
      ("workloads: must be " ^ String.concat " and " Config.workloads)
  in
  let script_args =
    let rec drop = function
      | s :: rest when Filename.check_suffix s "run.sh" -> rest
      | _ :: rest -> drop rest
      | [] -> []
    in
    drop command
  in
  iter_result
    (fun w ->
      match
        Config.parse
          (script_args
          @ [ "--proxjoin"; "proxjoin"; "--workload"; w; "--seed"; "1";
              "--seconds"; Printf.sprintf "%g" run_seconds; "--trace"; "0" ])
      with
      | Ok _ -> Ok ()
      | Error msg -> Error ("command: " ^ msg))
    wnames

let validate_file path =
  match
    let ic = open_in_bin path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    if String.length text > 64 * 1024 then Error "larger than 64 KiB"
    else Ok (Json.parse text)
  with
  | Ok json -> validate json
  | Error msg -> Error msg
  | exception Json.Error msg -> Error ("not JSON: " ^ msg)
  | exception Sys_error msg -> Error msg
