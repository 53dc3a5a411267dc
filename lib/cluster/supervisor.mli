(** Worker-process lifecycle: spawn N [fixq serve --socket] processes,
    watch them, and respawn the ones that die.

    Workers get stable names [w0] … [wN-1]; a respawned worker keeps
    its predecessor's name and socket path, so the rendezvous placement
    ({!Router}) is untouched by a crash — only the worker's in-memory
    state (documents, caches) is gone, which the coordinator's
    [on_respawn] hook re-registers. *)

type t

(** [create ~dir ~count ~command ()] spawns [count] workers. Worker [w]
    listens on [dir/w.sock] and appends stdout+stderr to [dir/w.log];
    [command ~name ~socket] is the full argv (argv.(0) = executable).
    Blocks until every worker's socket accepts connections, or raises
    [Failure] after [ready_timeout_ms] (default 15000). *)
val create :
  dir:string ->
  count:int ->
  command:(name:string -> socket:string -> string array) ->
  ?ready_timeout_ms:float ->
  unit ->
  t

val names : t -> string list
val socket_path : t -> string -> string

(** Current pid of a worker ([None] for an unknown name). *)
val pid : t -> string -> int option

(** Times each worker was respawned, summed. *)
val restarts : t -> int

(** Spawn one more worker and block until its socket accepts. The name
    is the lowest [wN] above every name ever used — names are never
    reused, since rendezvous placement is keyed on them. Raises
    [Failure] if the supervisor is stopping, or if the worker does not
    come up (it is then retired, not left for {!check} to respawn). *)
val add_worker : t -> string

(** Permanently remove a worker: drop it from supervision (so the
    health thread will not respawn it), terminate the process (SIGTERM,
    grace, SIGKILL) and unlink its socket. Unknown names are a no-op. *)
val retire_worker : t -> string -> unit

(** SIGKILL a worker {e without} retiring it — the health thread will
    notice and respawn it. This is the chaos hook behind the
    [coordinator.rebalance] Kill fault. Unknown names are a no-op. *)
val kill9 : t -> string -> unit

(** One supervision sweep: reap exited workers ([waitpid WNOHANG]) and
    respawn them; additionally treat [ping name = false] as dead (kill,
    then respawn). Each respawned worker is re-awaited on its socket
    and then passed to [on_respawn]. Safe to call from any thread. *)
val check :
  ?ping:(string -> bool) -> on_respawn:(string -> unit) -> t -> unit

(** Run {!check} every [interval_ms] in a background thread until
    {!stop_health} or {!stop}. *)
val start_health :
  interval_ms:float ->
  ?ping:(string -> bool) ->
  on_respawn:(string -> unit) ->
  t ->
  unit

(** Stop supervising: end the health thread (waiting for a sweep in
    progress) and respawn or add no worker from now on. The workers
    keep running. Idempotent. *)
val stop_health : t -> unit

(** {!stop_health}, then terminate every worker (SIGTERM, short grace,
    then SIGKILL). Idempotent. *)
val stop : t -> unit
