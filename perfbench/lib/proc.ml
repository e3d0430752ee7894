(* The server under test: the production [esm_syncd --listen] binary,
   spawned as a child process in the run directory. *)

type t = { pid : int; out : string; mutable alive : bool }

let live : t list ref = ref []

(* Read to end of file; /proc files report no length. *)
let read_file path =
  match open_in_bin path with
  | ic ->
      let b = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel b ic 1
         done
       with End_of_file -> ());
      close_in ic;
      Buffer.contents b
  | exception Sys_error _ -> ""

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let reap_wait ?(timeout = 20.0) t =
  let deadline = Stat.now () +. timeout in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ ->
        if Stat.now () > deadline then begin
          (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] t.pid)
        end
        else begin
          Unix.sleepf 0.002;
          wait ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  t.alive <- false;
  live := List.filter (fun p -> p != t) !live

(* Spawn [exe --listen unix:SOCK [--dir DIR]] and wait until it says it
   is listening. *)
let spawn ~exe ~sock ?dir ~out () : t =
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let args =
    Array.of_list
      ([ exe; "--listen"; "unix:" ^ sock ]
      @ match dir with Some d -> [ "--dir"; d ] | None -> [])
  in
  let pid = Unix.create_process exe args Unix.stdin fd fd in
  Unix.close fd;
  let t = { pid; out; alive = true } in
  live := t :: !live;
  let deadline = Stat.now () +. 30.0 in
  let rec wait () =
    if contains (read_file out) "listening on" then ()
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when Stat.now () < deadline ->
          Unix.sleepf 0.0002;
          wait ()
      | _ ->
          reap_wait ~timeout:0.0 t;
          failwith ("esm_syncd did not start: " ^ read_file out)
  in
  wait ();
  t

(* Peak resident set, MB ([VmHWM] of /proc/<pid>/status). *)
let peak_rss_mb t : float =
  let s = read_file (Printf.sprintf "/proc/%d/status" t.pid) in
  match
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> Scanf.sscanf (String.trim v) "%d kB" (fun kb -> Some kb)
        | _ -> None)
      (String.split_on_char '\n' s)
  with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> 0.0

type drained = { head : int; requests : int; dedup_hits : int; overloads : int }

(* SIGTERM: the server drains, prints its counters and exits. *)
let stop t : drained option =
  if t.alive then begin
    (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
    reap_wait t
  end;
  List.find_map
    (fun line ->
      match
        Scanf.sscanf line
          "esm_syncd: drained and stopped (requests=%d executed=%_d dedup-hits=%d stale=%_d overloads=%d reaped=%_d head=%d)"
          (fun requests dedup_hits overloads head -> { head; requests; dedup_hits; overloads })
      with
      | d -> Some d
      | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> None)
    (String.split_on_char '\n' (read_file t.out))

let kill_all () =
  List.iter
    (fun t ->
      (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap_wait ~timeout:5.0 t)
    !live

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec dir_bytes path =
  match Sys.is_directory path with
  | true -> Array.fold_left (fun n e -> n + dir_bytes (Filename.concat path e)) 0 (Sys.readdir path)
  | false -> (Unix.stat path).Unix.st_size
  | exception Sys_error _ -> 0
