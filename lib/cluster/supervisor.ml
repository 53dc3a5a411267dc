module Server = Fixq_service.Server

type worker = {
  w_name : string;
  w_socket : string;
  w_log : string;
  mutable w_pid : int;
  mutable w_restarts : int;
}

type t = {
  dir : string;
  command : name:string -> socket:string -> string array;
  ready_timeout_ms : float;
  lock : Mutex.t;
  mutable workers : worker list;
  mutable health : Thread.t option;
  mutable stopping : bool;  (** no respawn, no add *)
  mutable stopped : bool;  (** workers terminated *)
}

let spawn_process t w =
  let argv = t.command ~name:w.w_name ~socket:w.w_socket in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let log =
    Unix.openfile w.w_log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid = Unix.create_process argv.(0) argv devnull log log in
  Unix.close devnull;
  Unix.close log;
  w.w_pid <- pid

let wait_ready t w =
  let deadline = Unix.gettimeofday () +. (t.ready_timeout_ms /. 1000.) in
  let rec poll () =
    if Server.socket_alive w.w_socket then ()
    else if Unix.gettimeofday () > deadline then
      failwith
        (Printf.sprintf "worker %s did not come up on %s within %.0fms"
           w.w_name w.w_socket t.ready_timeout_ms)
    else begin
      (* bail out early if the process already died (bad flags, …) *)
      (match Unix.waitpid [ Unix.WNOHANG ] w.w_pid with
      | (0, _) -> ()
      | (_, _) ->
        failwith
          (Printf.sprintf "worker %s exited during startup; see %s" w.w_name
             w.w_log)
      | exception Unix.Unix_error _ -> ());
      Thread.delay 0.02;
      poll ()
    end
  in
  poll ()

let create ~dir ~count ~command ?(ready_timeout_ms = 15000.) () =
  if count < 1 then invalid_arg "Supervisor.create: count < 1";
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  let t =
    { dir; command; ready_timeout_ms; lock = Mutex.create (); workers = [];
      health = None; stopping = false; stopped = false }
  in
  t.workers <-
    List.init count (fun i ->
        let name = Printf.sprintf "w%d" i in
        { w_name = name;
          w_socket = Filename.concat dir (name ^ ".sock");
          w_log = Filename.concat dir (name ^ ".log");
          w_pid = -1; w_restarts = 0 });
  List.iter (fun w -> spawn_process t w) t.workers;
  List.iter (fun w -> wait_ready t w) t.workers;
  t

let names t = List.map (fun w -> w.w_name) t.workers
let find t name = List.find_opt (fun w -> w.w_name = name) t.workers

(* Worker names are never reused: a retired [w2] leaves a gap, and the
   next add becomes [w5] if 4 was the highest ever — rendezvous
   placement is name-keyed, so reusing a name would silently inherit
   the old worker's documents. *)
let next_name workers =
  let top =
    List.fold_left
      (fun acc w ->
        let n = String.length w.w_name in
        if n > 1 && w.w_name.[0] = 'w' then
          match int_of_string_opt (String.sub w.w_name 1 (n - 1)) with
          | Some i -> max acc i
          | None -> acc
        else acc)
      (-1) workers
  in
  Printf.sprintf "w%d" (top + 1)

let socket_path t name =
  match find t name with
  | Some w -> w.w_socket
  | None -> invalid_arg ("Supervisor.socket_path: unknown worker " ^ name)

let pid t name = Option.map (fun w -> w.w_pid) (find t name)

let restarts t =
  Mutex.lock t.lock;
  let n = List.fold_left (fun acc w -> acc + w.w_restarts) 0 t.workers in
  Mutex.unlock t.lock;
  n

let reaped w =
  match Unix.waitpid [ Unix.WNOHANG ] w.w_pid with
  | (0, _) -> false
  | (_, _) -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
    (* already reaped (or reparented); dead either way if kill fails *)
    (match Unix.kill w.w_pid 0 with
    | () -> false
    | exception Unix.Unix_error _ -> true)
  | exception Unix.Unix_error _ -> false

let kill_worker w =
  (try Unix.kill w.w_pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec wait () =
    if reaped w then ()
    else if Unix.gettimeofday () > deadline then begin
      (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ())
    end
    else begin
      Thread.delay 0.05;
      wait ()
    end
  in
  wait ()

let retire_worker t name =
  Mutex.lock t.lock;
  let (gone, kept) = List.partition (fun w -> w.w_name = name) t.workers in
  t.workers <- kept;
  Mutex.unlock t.lock;
  List.iter
    (fun w ->
      kill_worker w;
      if Sys.file_exists w.w_socket then
        try Unix.unlink w.w_socket with Unix.Unix_error _ | Sys_error _ -> ())
    gone

let add_worker t =
  Mutex.lock t.lock;
  if t.stopping then begin
    Mutex.unlock t.lock;
    failwith "Supervisor.add_worker: supervisor is stopping"
  end;
  let name = next_name t.workers in
  let w =
    { w_name = name;
      w_socket = Filename.concat t.dir (name ^ ".sock");
      w_log = Filename.concat t.dir (name ^ ".log");
      w_pid = -1; w_restarts = 0 }
  in
  t.workers <- t.workers @ [ w ];
  spawn_process t w;
  Mutex.unlock t.lock;
  match wait_ready t w with
  | () -> name
  | exception e ->
    (* a worker that never came up must not stay listed, or the health
       thread respawns it forever *)
    retire_worker t name;
    raise e

let kill9 t name =
  match find t name with
  | Some w when w.w_pid > 0 -> (
    try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ())
  | _ -> ()

let check ?ping ~on_respawn t =
  (* snapshot under the lock; ping and kill (seconds each for an
     unresponsive worker) run outside it so they cannot block stop()
     or restarts(); only the quick respawn bookkeeping relocks *)
  Mutex.lock t.lock;
  let snapshot = if t.stopping then [] else t.workers in
  Mutex.unlock t.lock;
  let respawn_list =
    List.filter
      (fun w ->
        if reaped w then true
        else
          match ping with
          | Some p when not (p w.w_name) ->
            kill_worker w;
            true
          | _ -> false)
      snapshot
  in
  if respawn_list <> [] then begin
    Mutex.lock t.lock;
    let spawned =
      if t.stopping then [] (* stop() won the race: stay down *)
      else begin
        (* a worker retired since the snapshot must stay down *)
        let still =
          List.filter (fun w -> List.memq w t.workers) respawn_list
        in
        List.iter
          (fun w ->
            w.w_restarts <- w.w_restarts + 1;
            spawn_process t w)
          still;
        still
      end
    in
    Mutex.unlock t.lock;
    List.iter
      (fun w ->
        wait_ready t w;
        on_respawn w.w_name)
      spawned
  end

let start_health ~interval_ms ?ping ~on_respawn t =
  if t.health <> None then invalid_arg "Supervisor.start_health: already running";
  let thread () =
    let tick = 0.05 in
    let rec sleep remaining =
      if (not t.stopping) && remaining > 0. then begin
        Thread.delay (min tick remaining);
        sleep (remaining -. tick)
      end
    in
    while not t.stopping do
      sleep (interval_ms /. 1000.);
      if not t.stopping then
        try check ?ping ~on_respawn t with _ -> ()
    done
  in
  t.health <- Some (Thread.create thread ())

let stop_health t =
  Mutex.lock t.lock;
  t.stopping <- true;
  let health = t.health in
  t.health <- None;
  Mutex.unlock t.lock;
  Option.iter Thread.join health

let stop t =
  stop_health t;
  Mutex.lock t.lock;
  let already = t.stopped in
  t.stopped <- true;
  Mutex.unlock t.lock;
  if not already then begin
    List.iter kill_worker t.workers;
    List.iter
      (fun w ->
        if Sys.file_exists w.w_socket then
          try Unix.unlink w.w_socket with Unix.Unix_error _ | Sys_error _ -> ())
      t.workers
  end
