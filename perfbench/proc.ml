(* Server processes and socket clients: spawn [fixq serve] / [fixq
   cluster] with its socket and state under a run directory, talk to it
   over the Unix socket, read its CPU time and peak RSS from /proc, and
   stop it (and, for a cluster, its workers). *)

module Json = Fixq_service.Json

type server = {
  pid : int;
  socket : string;
  mutable workers : int list;  (** cluster worker pids, from [stats] *)
}

(* every server started and not yet stopped, for [cleanup] *)
let spawned : server list ref = ref []

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let read_proc path =
  (* /proc files report length 0: read line by line *)
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let buf = Buffer.create 1024 in
      (try
         while true do
           Buffer.add_string buf (input_line ic);
           Buffer.add_char buf '\n'
         done
       with End_of_file -> ());
      Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

type conn = { ic : in_channel; oc : out_channel; fd : Unix.file_descr }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () ->
    { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; fd }
  | exception e ->
    Unix.close fd;
    raise e

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* One request line out, one response line back. *)
let call c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let call_json c line = Json.parse (call c line)

(* ------------------------------------------------------------------ *)
(* Spawning and stopping                                               *)
(* ------------------------------------------------------------------ *)

let wait_socket ~pid path =
  let deadline = Unix.gettimeofday () +. 60. in
  let rec loop () =
    match connect path with
    | c -> c
    | exception Unix.Unix_error _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith (Printf.sprintf "server %d exited before listening" pid));
      if Unix.gettimeofday () > deadline then
        failwith ("server did not listen on " ^ path);
      Unix.sleepf 0.005;
      loop ()
  in
  loop ()

(* [spawn ~fixq ~dir args] starts [fixq args] with stdout/stderr going to
   [dir/server.log]; [args] name the socket relative to [dir], where
   the process runs. Returns the server and an open connection. *)
let spawn ~fixq ~dir ~socket args =
  mkdir_p dir;
  let log =
    Unix.openfile (Filename.concat dir "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  let pid =
    Fun.protect
      ~finally:(fun () -> Sys.chdir cwd)
      (fun () ->
        Unix.create_process fixq (Array.of_list (fixq :: args)) devnull log log)
  in
  Unix.close log;
  Unix.close devnull;
  let path = Filename.concat dir socket in
  let s = { pid; socket = path; workers = [] } in
  spawned := s :: !spawned;
  (s, wait_socket ~pid path)

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> (
    (* not our child (a cluster worker): alive while /proc lists it and
       it is not a zombie waiting for a parent to reap it *)
    match read_proc (Printf.sprintf "/proc/%d/stat" pid) with
    | s ->
      let i = String.rindex s ')' in
      String.length s > i + 2 && s.[i + 2] <> 'Z'
    | exception Sys_error _ -> false)

let wait_gone ~timeout pids =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec loop () =
    let live = List.filter alive pids in
    if live <> [] && Unix.gettimeofday () < deadline then begin
      Unix.sleepf 0.01;
      loop ()
    end
    else live
  in
  loop ()

(* Ask the server to shut down over [c]; whatever is still running
   after a grace period is killed. Waits until every process is gone. *)
let stop s c =
  (try ignore (call c {|{"op":"shutdown"}|}) with _ -> ());
  close c;
  let pids = s.pid :: s.workers in
  let live = wait_gone ~timeout:10. pids in
  List.iter (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()) live;
  ignore (wait_gone ~timeout:10. pids);
  (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
  spawned := List.filter (fun x -> x != s) !spawned

(* Kill whatever [spawn] started and [stop] did not stop (a run that
   failed half-way), and wait for it. *)
let cleanup () =
  List.iter
    (fun s ->
      List.iter
        (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ())
        (s.pid :: s.workers);
      ignore (wait_gone ~timeout:10. (s.pid :: s.workers));
      try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ())
    !spawned;
  spawned := []

(* ------------------------------------------------------------------ *)
(* /proc                                                               *)
(* ------------------------------------------------------------------ *)

(* Clock ticks per second of /proc/PID/stat times (USER_HZ, 100 on
   Linux). *)
let clk_tck = 100.

(* user + system CPU seconds of [pid] *)
let cpu_seconds pid =
  let s = read_proc (Printf.sprintf "/proc/%d/stat" pid) in
  let i = String.rindex s ')' in
  let fields =
    String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2))
  in
  (* after "pid (comm) ": state is field 3, utime 14, stime 15 *)
  let field n = float_of_string (List.nth fields (n - 3)) in
  (field 14 +. field 15) /. clk_tck

(* peak resident set size of [pid] in MB (VmHWM) *)
let peak_rss_mb pid =
  let s = read_proc (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' s)
  in
  Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB"
    (fun kb -> kb /. 1024.)

let pids s = s.pid :: s.workers
let total_cpu s = List.fold_left (fun a p -> a +. cpu_seconds p) 0. (pids s)
let total_rss s = List.fold_left (fun a p -> a +. peak_rss_mb p) 0. (pids s)
