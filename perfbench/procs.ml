(* Child processes of the program under test: spawn, wait for the
   listening banner, probe with PING, kill -9, and read peak RSS. Every
   child is registered so the benchmark kills and reaps all of them on
   the way out, whatever path it exits by. *)

type t = { pid : int; port : int; name : string }

let live : (int, unit) Hashtbl.t = Hashtbl.create 8
let now = Pj_util.Timing.monotonic_now

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  Hashtbl.remove live pid

let kill9 pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap pid

let kill_all () = Hashtbl.iter (fun pid () -> kill9 pid) (Hashtbl.copy live)
let () = at_exit kill_all

let spawn ~bin ~args ~log =
  let fd = Unix.openfile log [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process bin (Array.of_list (bin :: args)) Unix.stdin fd fd
  in
  Unix.close fd;
  Hashtbl.replace live pid ();
  pid

(* Run to completion (compact); raises with the log on failure. *)
let run ~bin ~args ~log =
  let pid = spawn ~bin ~args ~log in
  let _, status = Unix.waitpid [] pid in
  Hashtbl.remove live pid;
  if status <> Unix.WEXITED 0 then
    failwith (Printf.sprintf "%s %s failed (see %s)" bin (String.concat " " args) log)

(* Whole file, "" when unreadable; reads to EOF because /proc files
   report length 0. *)
let read_file path =
  try
    let ic = open_in_bin path in
    let b = Buffer.create 4096 in
    (try
       while true do
         Buffer.add_channel b ic 1
       done
     with End_of_file -> ());
    close_in ic;
    Buffer.contents b
  with Sys_error _ -> ""

(* The port in "... on 127.0.0.1:PORT (...)" of the start banner. *)
let banner_port text =
  let key = "on 127.0.0.1:" in
  let rec find i =
    if i + String.length key > String.length text then None
    else if String.sub text i (String.length key) = key then begin
      let j = ref (i + String.length key) in
      while !j < String.length text && text.[!j] >= '0' && text.[!j] <= '9' do
        incr j
      done;
      int_of_string_opt (String.sub text (i + String.length key) (!j - i - String.length key))
    end
    else find (i + 1)
  in
  if String.contains text '\n' then find 0 else None

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error _ -> true

let text_request port line =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
      let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
      output_string oc (line ^ "\n");
      flush oc;
      input_line ic)

type pending = { p_pid : int; p_log : string; p_name : string }

let launch ~bin ~args ~log ~name = { p_pid = spawn ~bin ~args ~log; p_log = log; p_name = name }

(* Wait until a launched server has answered PING. *)
let ready { p_pid = pid; p_log = log; p_name = name } =
  let deadline = now () +. 60. in
  let rec wait_port () =
    match banner_port (read_file log) with
    | Some p -> p
    | None ->
        if exited pid then begin
          Hashtbl.remove live pid;
          failwith (Printf.sprintf "%s exited before listening:\n%s" name (read_file log))
        end;
        if now () > deadline then failwith (name ^ ": no banner within 60 s");
        Thread.delay 0.001;
        wait_port ()
  in
  let port = wait_port () in
  let rec ping () =
    match text_request port "PING" with
    | "PONG" -> ()
    | other -> failwith (Printf.sprintf "%s: PING answered %S" name other)
    | exception (Unix.Unix_error _ | End_of_file) ->
        if now () > deadline then failwith (name ^ ": no PONG within 60 s");
        Thread.delay 0.001;
        ping ()
  in
  ping ();
  { pid; port; name }

let start ~bin ~args ~log ~name = ready (launch ~bin ~args ~log ~name)

let stop p = kill9 p.pid

(* Peak resident set (VmHWM) in MB. *)
(* CPU time (user + system, every thread) the process has used so far,
   from /proc/PID/stat in clock ticks of 1/100 s. *)
let cpu_s p =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" p.pid) in
  match String.rindex_opt stat ')' with
  | None -> Float.nan
  | Some i -> (
      (* Fields after the command name start at field 3 (state);
         utime and stime are fields 14 and 15. *)
      match String.split_on_char ' ' (String.trim (String.sub stat (i + 1) (String.length stat - i - 1))) with
      | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: utime :: stime :: _ -> (
          match (float_of_string_opt utime, float_of_string_opt stime) with
          | Some u, Some s -> (u +. s) /. 100.
          | _ -> Float.nan)
      | _ -> Float.nan)

let peak_rss_mb p =
  let status = read_file (Printf.sprintf "/proc/%d/status" p.pid) in
  List.fold_left
    (fun acc line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.
          | [] -> acc)
      | _ -> acc)
    Float.nan
    (String.split_on_char '\n' status)

(* STATS as key=value pairs. *)
let stats port =
  let line = text_request port "STATS" in
  String.split_on_char ' ' line
  |> List.filter_map (fun kv ->
         match String.index_opt kv '=' with
         | Some i -> Some (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
         | None -> None)

let stat_float stats k =
  match List.assoc_opt k stats with
  | Some v -> Option.value (float_of_string_opt v) ~default:Float.nan
  | None -> Float.nan

let rec dir_bytes path =
  match Unix.lstat path with
  | { Unix.st_kind = S_DIR; _ } ->
      Array.fold_left
        (fun acc e -> acc + dir_bytes (Filename.concat path e))
        0 (Sys.readdir path)
  | { Unix.st_kind = S_REG; st_size; _ } -> st_size
  | _ -> 0
  | exception Unix.Unix_error _ -> 0

let rec remove_tree path =
  match Unix.lstat path with
  | { Unix.st_kind = S_DIR; _ } ->
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()
