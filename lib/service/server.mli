(** The [fixq serve] server: long-lived state (document store,
    prepared-query cache, result cache, metrics) plus the two
    transports — newline-delimited JSON over a Unix-domain socket, or
    over stdin/stdout ([--pipe], the mode tests drive).

    Request handling is synchronous and thread-safe. There is no
    thread pool: a pipe is one stream, answered in order, and a socket
    serves each connection on its own thread. [config.workers] is the
    number of requests that execute at once; a connection holds one of
    these slots only while one of its requests runs, so an idle client
    never starves another. Per-request failures of any kind (parse
    errors, dynamic errors, iteration budgets, deadlines) become
    [{"ok":false,…}] responses; nothing short of transport EOF or an
    explicit [shutdown] op stops the server.

    Shutdown is one rule on every transport: a [shutdown] line stops
    the front door before it runs; requests already executing finish;
    the shutdown then runs alone and is answered; no later request on
    any connection executes, so no acknowledged write follows the final
    snapshot; every open connection is then shut down. *)

type config = {
  workers : int;
      (** requests executing at once on a socket (default 1) *)
  prepared_capacity : int;  (** prepared-query LRU entries (64) *)
  result_capacity : int;  (** result LRU entries (256) *)
  max_iterations : int;
      (** default per-request IFP iteration budget (100,000) *)
  timeout_ms : float option;
      (** default per-request wall-clock budget (none) *)
  stratified : bool;  (** default for the Section-6 refinement *)
  governor : Governor.config;
      (** resource limits: memory budget, load shedding, recursion
          depth (all off by default) *)
  state_dir : string option;
      (** durability: when set, document ops are write-ahead logged
          under this directory and snapshots make recovery
          O(snapshot)+O(tail) ({!Durability}); [create] recovers from
          whatever the directory holds (default [None]) *)
  snapshot_threshold : int;
      (** take a snapshot every this many logged ops; [0] disables
          op-count-triggered snapshots (default 64) *)
}

val default_config : config

type t

(** Build a server. With [config.state_dir] set, first recovers the
    document store, result cache and IVM entries from the
    directory's snapshot + WAL (tolerating torn tails and invalid
    snapshots — see {!Durability}), then opens the WAL for appending. *)
val create : ?config:config -> ?store:Store.t -> unit -> t

val store : t -> Store.t
val config : t -> config
val governor : t -> Governor.t

(** Force a durability snapshot (and truncate the WAL). [Error] when
    the server has no [state_dir] or the write failed. *)
val force_snapshot : t -> (unit, string) result

(** Handle one request object. Returns the response and whether this
    was a [shutdown]. Never raises. *)
val handle : t -> Json.t -> Json.t * bool

(** {!handle} on raw wire lines (invalid JSON becomes an error
    response). *)
val respond : t -> string -> Json.t * bool

(** {!respond} with the response printed by {!Json.to_string}. *)
val handle_line : t -> string -> string * bool

(** The Prometheus text exposition of the server's counters (cache
    hits/misses/sizes, generation, uptime, per-query aggregates) — the
    payload of [{"op":"stats","format":"prometheus"}]. *)
val prometheus_stats : t -> string

(** Raised by the socket transports instead of clobbering the socket of
    another {e live} server at the same path. Stale socket files (left
    by a crashed process; nothing accepts behind them) are unlinked and
    reused as before. *)
exception Socket_in_use of string

(** [socket_alive path] — does a connect to the Unix socket at [path]
    currently succeed? *)
val socket_alive : string -> bool

(** Generic transports: serve with an arbitrary line handler
    (response, stop?), each response written into the stream with
    {!Json.output}. The single-process server and the cluster
    coordinator share these. A [shutdown] line always stops them (see
    above). *)
val serve_pipe_with :
  handle:(string -> Json.t * bool) -> in_channel -> out_channel -> unit

(** Like {!serve_pipe_with} for a Unix-domain socket listener: one
    thread per open connection (at most 256; past that, accepting waits
    for one to close) and [workers] requests executing at once (default
    1). Returns after a [shutdown] without waiting for clients to hang
    up, and removes the socket file. Raises {!Socket_in_use} when a
    live server already answers at [path]. *)
val serve_socket_with :
  handle:(string -> Json.t * bool) ->
  ?workers:int ->
  path:string ->
  unit ->
  unit

(** Serve requests line by line from [ic] to [oc], in order, until EOF
    or a [shutdown] op. *)
val serve_pipe : t -> in_channel -> out_channel -> unit

(** Listen on a Unix-domain socket at [path] (unlinking any stale
    socket first) with [config.workers] requests executing at once,
    until a [shutdown] op. Raises {!Socket_in_use} rather than stealing
    a live server's socket. *)
val serve_socket : t -> path:string -> unit
