(** Wiring: {!Supervisor} (worker processes) + {!Transport} (socket
    clients) + {!Coordinator} (routing, failover) as
    one handle. This is what [fixq cluster] and the benchmarks use; the
    unit tests bypass it and drive {!Coordinator} over in-process
    servers instead. *)

type t

(** [launch ~dir ~count ~command ()] spawns [count] workers (see
    {!Supervisor.create}), connects a transport and a separate
    health-ping transport to each, starts the health thread
    (ping + respawn + document replay every [health_interval_ms],
    default 1000), and returns the assembled cluster. *)
val launch :
  dir:string ->
  count:int ->
  command:(name:string -> socket:string -> string array) ->
  ?config:Coordinator.config ->
  ?health_interval_ms:float ->
  unit ->
  t

val coordinator : t -> Coordinator.t
val supervisor : t -> Supervisor.t

(** The coordinator as a line handler, for
    {!Fixq_service.Server.serve_pipe_with} / [serve_socket_with]. *)
val respond : t -> string -> Fixq_service.Json.t * bool

(** {!respond} as a string, for in-process callers. *)
val handle_line : t -> string -> string * bool

(** Stop the health thread, terminate the workers, close the
    transports. Idempotent. *)
val shutdown : t -> unit
