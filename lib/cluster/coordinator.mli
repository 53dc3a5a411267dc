(** The cluster coordinator: speaks the {!Fixq_service.Protocol} wire
    format to clients and fans requests out to workers.

    Routing is document-sharded: [load-doc] goes to the rendezvous
    replicas of its URI ({!Router}), and a query follows the documents
    it mentions ([Fixq.doc_uris]). Every query routes whole to one
    worker; multi-document queries prefer workers whose local load
    order matches the global one, so their answers serialize as the
    single process's do.

    Failures heal in layers: per-send retries with exponential backoff
    and jitter, then failover to the next live replica (marking the
    loser dead), while the supervisor's respawn hook
    ({!on_worker_respawn}) brings workers back and replays their
    documents.

    Topology changes online: [add-worker] spawns a worker and
    [remove-worker]/[drain] retire or empty one, each followed by a
    rebalance — every key whose rendezvous replica set changes (exactly
    the gained/lost worker's keys, the HRW property) has its document
    state shipped snapshot-style (a [dump-doc] from a live holder,
    materialized into one load line) to its new replicas while the old
    holders keep serving, then cut over atomically per key. The
    [coordinator.rebalance] chaos point kills a destination mid-move to
    exercise the retry rounds. *)

module Json = Fixq_service.Json

type backend = {
  workers : string list;  (** initial worker names, supervisor order *)
  send :
    string -> timeout_ms:float option -> string -> (string, string) result;
      (** [send name ~timeout_ms line] — one request line to one
          worker; [Error] means transport failure (dead worker), not a
          protocol-level [{"ok":false}] *)
  info : string -> (string * Json.t) list;
      (** per-worker extras for [stats] (pid, socket, restarts, …) *)
  restarts : unit -> int;  (** total respawns so far *)
  stop : unit -> unit;
      (** stop supervising, so no worker is respawned; [shutdown] calls
          it before telling the workers to exit *)
  add_worker : unit -> (string, string) result;
      (** spawn one more worker, return its name once it accepts *)
  retire_worker : string -> unit;
      (** permanently terminate a worker (no respawn) *)
  kill_worker : string -> unit;
      (** SIGKILL without retiring — the supervisor respawns it; the
          [coordinator.rebalance] Kill fault lands here *)
}

type config = {
  replication : int;  (** replicas per document (clamped to cluster size) *)
  retries : int;  (** re-sends per request leg before failover *)
  backoff_ms : float;  (** base backoff; doubles per retry, plus jitter *)
  jitter : float;
      (** jitter as a fraction of the current backoff ([0.] disables,
          making retry timing deterministic; default 0.5) *)
  timeout_ms : float option;  (** transport read budget for forwards *)
  compact_patches : int;
      (** fold a document's line history into one materialized load
          once it exceeds this many lines (and before respawn replay /
          rebalance shipping); [0] disables compaction (default 16) *)
}

val default_config : config

type t

val create : ?config:config -> backend -> t

(** The current routing table (it changes when a rebalance completes). *)
val router : t -> Router.t

(** Current membership: [backend.workers] plus added minus removed
    workers (drained workers are still members — running but unrouted). *)
val current_workers : t -> string list

(** Workers currently believed alive (a failed send marks its target
    dead; {!on_worker_respawn} revives it). *)
val alive_workers : t -> string list

val mark_dead : t -> string -> unit

(** The supervisor respawn hook: mark [name] alive again and replay
    every document it is supposed to hold. *)
val on_worker_respawn : t -> string -> unit

(** The coordinator as a line handler — plug into
    {!Fixq_service.Server.serve_pipe_with} /
    [serve_socket_with]. Returns (response, shutdown?); a worker's
    line comes back verbatim with its ["worker"] member spliced in. On
    [shutdown], health checks have stopped and the workers have been
    told to shut down too (best effort), so none is respawned. *)
val respond : t -> string -> Fixq_service.Json.t * bool

(** {!respond}, printed. *)
val handle_line : t -> string -> string * bool
