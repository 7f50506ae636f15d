exception Injected of string
exception Panicked of string

type action = Fail | Delay of float | Panic
type rule = { site : string; action : action; prob : float }

(* Fast-path gate: [hit] reads only this atomic when nothing is armed,
   so production binaries pay one load per site. Everything behind it
   is guarded by [m]. *)
let armed = Atomic.make false
let m = Mutex.create ()
let rules : rule list ref = ref []
let counts : (string, int) Hashtbl.t = Hashtbl.create 16
let default_seed = 0x5EED
let rng = ref (Prng.create default_seed)

let with_lock f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let active () = Atomic.get armed

let set_rules rs =
  with_lock (fun () ->
      rules := rs;
      Hashtbl.reset counts;
      Atomic.set armed (rs <> []))

let configure ?(seed = default_seed) rs =
  with_lock (fun () -> rng := Prng.create seed);
  set_rules rs

let clear () = set_rules []

let arm ?(prob = 1.0) site action =
  with_lock (fun () ->
      rules := { site; action; prob } :: List.filter (fun r -> r.site <> site) !rules;
      Atomic.set armed true)

(* Exact site name wins; otherwise the longest armed "*"-prefix, so
   ["router.leg.*"] can cover every leg while ["router.leg.0"]
   overrides one. *)
let find_rule name =
  let exact = List.find_opt (fun r -> r.site = name) !rules in
  match exact with
  | Some _ -> exact
  | None ->
      List.fold_left
        (fun best r ->
          let n = String.length r.site in
          if
            n > 0
            && r.site.[n - 1] = '*'
            && String.length name >= n - 1
            && String.sub name 0 (n - 1) = String.sub r.site 0 (n - 1)
          then
            match best with
            | Some b when String.length b.site >= n -> best
            | _ -> Some r
          else best)
        None !rules

(* Decide under the lock (the PRNG draw must be serialized for
   reproducibility), act outside it (a delay must not block every
   other site, and raising with a mutex held would poison it). *)
let decide name =
  with_lock (fun () ->
      match find_rule name with
      | None -> None
      | Some r ->
          let fires = r.prob >= 1.0 || Prng.float !rng 1.0 < r.prob in
          if fires then begin
            Hashtbl.replace counts name
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts name));
            Some r.action
          end
          else None)

let hit name =
  if Atomic.get armed then
    match decide name with
    | None -> ()
    | Some Fail -> raise (Injected name)
    | Some Panic -> raise (Panicked name)
    | Some (Delay s) -> if s > 0. then Unix.sleepf s

let fired name =
  with_lock (fun () -> Option.value ~default:0 (Hashtbl.find_opt counts name))

let fired_total () =
  with_lock (fun () -> Hashtbl.fold (fun _ n acc -> n + acc) counts 0)

(* --- spec grammar: site=error|delay:ms|panic[@p][,...] ----------------- *)

let parse_action rule_str s =
  if s = "error" then Ok Fail
  else if s = "panic" then Ok Panic
  else if String.length s > 6 && String.sub s 0 6 = "delay:" then
    let ms = String.sub s 6 (String.length s - 6) in
    match float_of_string_opt ms with
    | Some v when Float.is_finite v && v >= 0. -> Ok (Delay (v /. 1000.))
    | Some _ | None ->
        Error
          (Printf.sprintf "failpoint %S: bad delay %S (want milliseconds >= 0)"
             rule_str ms)
  else
    Error
      (Printf.sprintf "failpoint %S: unknown action %S (want error|delay:ms|panic)"
         rule_str s)

let parse_rule rule_str =
  match String.index_opt rule_str '=' with
  | None ->
      Error
        (Printf.sprintf "failpoint %S: missing '=' (want site=action[@prob])"
           rule_str)
  | Some i ->
      let site = String.trim (String.sub rule_str 0 i) in
      let rhs =
        String.trim (String.sub rule_str (i + 1) (String.length rule_str - i - 1))
      in
      if site = "" then
        Error (Printf.sprintf "failpoint %S: empty site name" rule_str)
      else begin
        let action_str, prob_str =
          match String.index_opt rhs '@' with
          | None -> (rhs, None)
          | Some j ->
              ( String.sub rhs 0 j,
                Some (String.sub rhs (j + 1) (String.length rhs - j - 1)) )
        in
        match parse_action rule_str action_str with
        | Error _ as e -> e
        | Ok action -> begin
            match prob_str with
            | None -> Ok { site; action; prob = 1.0 }
            | Some p -> begin
                match float_of_string_opt p with
                | Some v when Float.is_finite v && v > 0. && v <= 1. ->
                    Ok { site; action; prob = v }
                | Some _ | None ->
                    Error
                      (Printf.sprintf
                         "failpoint %S: bad probability %S (want 0 < p <= 1)"
                         rule_str p)
              end
          end
      end

let parse spec =
  let items =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  List.fold_left
    (fun acc item ->
      match acc with
      | Error _ as e -> e
      | Ok rs -> (
          match parse_rule item with Ok r -> Ok (r :: rs) | Error _ as e -> e))
    (Ok []) items
  |> Result.map List.rev

let init_from_env () =
  match Sys.getenv_opt "PROXJOIN_FAILPOINTS" with
  | None | Some "" -> Ok ()
  | Some spec -> (
      match parse spec with
      | Error _ as e -> e
      | Ok rs ->
          let seed =
            match Sys.getenv_opt "PROXJOIN_FAILPOINT_SEED" with
            | Some s -> (
                match int_of_string_opt (String.trim s) with
                | Some n -> n
                | None -> default_seed)
            | None -> default_seed
          in
          configure ~seed rs;
          Ok ())
