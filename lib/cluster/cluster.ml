module Json = Fixq_service.Json

type t = {
  supervisor : Supervisor.t;
  coordinator : Coordinator.t;
  transport_lock : Mutex.t;
      (** [add-worker]/[remove-worker] mutate the transport tables while
          request threads read them *)
  transports : (string, Transport.t) Hashtbl.t;
  ping_transports : (string, Transport.t) Hashtbl.t;
      (** health pings ride their own connections so a long-running
          request on the main transport cannot stall the health loop *)
}

let launch ~dir ~count ~command ?(config = Coordinator.default_config)
    ?(health_interval_ms = 1000.) () =
  let supervisor = Supervisor.create ~dir ~count ~command () in
  let transport_lock = Mutex.create () in
  let transports = Hashtbl.create 8 in
  let ping_transports = Hashtbl.create 8 in
  let with_transports f =
    Mutex.lock transport_lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock transport_lock) f
  in
  let register name =
    let path = Supervisor.socket_path supervisor name in
    with_transports (fun () ->
        Hashtbl.replace transports name (Transport.create path);
        Hashtbl.replace ping_transports name (Transport.create path))
  in
  List.iter register (Supervisor.names supervisor);
  let send name ~timeout_ms line =
    match with_transports (fun () -> Hashtbl.find_opt transports name) with
    | None -> Error ("unknown worker " ^ name)
    | Some tr -> Transport.call ?timeout_ms tr line
  in
  let info name =
    [ ("socket", Json.Str (Supervisor.socket_path supervisor name));
      ("pid", Json.of_int (Option.value ~default:(-1) (Supervisor.pid supervisor name))) ]
  in
  let add_worker () =
    match Supervisor.add_worker supervisor with
    | name ->
      register name;
      Ok name
    | exception Failure msg -> Error msg
  in
  let retire_worker name =
    Supervisor.retire_worker supervisor name;
    with_transports (fun () ->
        (match Hashtbl.find_opt transports name with
        | Some tr ->
          Transport.close tr;
          Hashtbl.remove transports name
        | None -> ());
        match Hashtbl.find_opt ping_transports name with
        | Some tr ->
          Transport.close tr;
          Hashtbl.remove ping_transports name
        | None -> ())
  in
  let backend =
    { Coordinator.workers = Supervisor.names supervisor; send; info;
      restarts = (fun () -> Supervisor.restarts supervisor);
      stop = (fun () -> Supervisor.stop_health supervisor);
      add_worker; retire_worker;
      kill_worker = (fun name -> Supervisor.kill9 supervisor name) }
  in
  let coordinator = Coordinator.create ~config backend in
  let ping name =
    let find_ping name =
      Mutex.lock transport_lock;
      let tr = Hashtbl.find_opt ping_transports name in
      Mutex.unlock transport_lock;
      tr
    in
    (* A chaos fault on the health probe reports the worker unresponsive,
       so the supervisor SIGKILLs and respawns it — a real worker crash
       and doc-replay cycle driven from a deterministic schedule.
       [Delay] stalls the probe instead (a slow worker, not a dead one). *)
    let chaos_dead =
      match Fixq_chaos.check "supervisor.ping" with
      | None -> false
      | Some (Fixq_chaos.Delay s) ->
        Fixq_chaos.sleep s;
        false
      | Some
          ( Fixq_chaos.Drop | Fixq_chaos.Truncate | Fixq_chaos.Kill
          | Fixq_chaos.Oom ) ->
        true
    in
    if chaos_dead then false
    else
    match find_ping name with
    | None ->
      (* listed by the supervisor but not registered yet: an
         [add-worker] still waiting for the socket. A crash meanwhile
         is seen by reaping, not by pinging. *)
      true
    | Some tr -> (
      let once () = Transport.call ~timeout_ms:5000. tr {|{"op":"ping"}|} in
      match once () with
      | Ok _ -> true
      | Error _ -> (
        (* the first failure may just be a stale cached connection to a
           predecessor process — the failed call tore it down, so one
           immediate retry dials fresh; only that failing means dead *)
        match once () with Ok _ -> true | Error _ -> false))
  in
  Supervisor.start_health ~interval_ms:health_interval_ms ~ping
    ~on_respawn:(fun name -> Coordinator.on_worker_respawn coordinator name)
    supervisor;
  { supervisor; coordinator; transport_lock; transports; ping_transports }

let coordinator t = t.coordinator
let supervisor t = t.supervisor
let respond t line = Coordinator.respond t.coordinator line
let handle_line t line = Coordinator.handle_line t.coordinator line

let shutdown t =
  Supervisor.stop t.supervisor;
  Mutex.lock t.transport_lock;
  Hashtbl.iter (fun _ tr -> Transport.close tr) t.transports;
  Hashtbl.iter (fun _ tr -> Transport.close tr) t.ping_transports;
  Mutex.unlock t.transport_lock
