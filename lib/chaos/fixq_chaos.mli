(** Process-wide, seed-deterministic fault injection.

    A schedule maps named injection points to fault rules. Code under test
    calls {!check} at each point; when the registry is inactive this is a
    single mutable-ref load, so instrumented hot paths cost nothing in
    production. When active, a per-rule deterministic PRNG (derived from the
    global seed, the point name and the rule index) decides whether the
    point fires, so a given [seed=N] schedule replays the exact same fault
    sequence on every run.

    Schedule grammar (comma-separated items):
    {v
      seed=N
      <point>=<kind>[:<prob>][@<nth>][#<max>]
    v}
    where [<point>] is one of {!points}, [<kind>] is
    [drop | truncate | kill | oom | delay<MS>], [:<prob>] is a firing
    probability in \[0,1\] (default 1.0), [@<nth>] fires only on the n-th
    arrival at the point (1-based), and [#<max>] caps the total number of
    firings for the rule. Repeating a point adds an independent rule. *)

type fault =
  | Drop  (** sever the connection / fail the operation *)
  | Delay of float  (** sleep this many seconds, then proceed *)
  | Truncate  (** cut a frame short mid-write *)
  | Kill  (** SIGKILL the current process *)
  | Oom  (** raise [Out_of_memory] at the point *)

type event = { point : string; fault : fault; seq : int }

val points : string list
(** The valid injection-point names. *)

val fault_to_string : fault -> string

val configure : string -> (unit, string) result
(** Parse a schedule spec and activate the registry. Replaces any previous
    schedule. [Error msg] on malformed specs; the registry is left
    untouched on error. The empty string deactivates (like {!reset}). *)

val set_log : string option -> unit
(** Append fired events to this file ([O_APPEND], one atomic write per
    event, so entries survive a subsequent SIGKILL). [None] disables. *)

val reset : unit -> unit
(** Deactivate and clear the schedule, counters, and event list. *)

val active : unit -> bool

val check : string -> fault option
(** [check point] returns the fault to inject at this arrival, if any.
    Constant-time [None] when the registry is inactive. Raises
    [Invalid_argument] if [point] is not in {!points}. *)

type point
(** A point name checked once against {!points}. *)

val point : string -> point
(** [point name] validates [name]; raises [Invalid_argument] as {!check}
    does for an unknown one. Make it once, at module initialisation. *)

val fire : point -> fault option
(** {!check} on a validated point: a single load of the registry's flag
    when it is inactive. *)

val fired : unit -> int
(** Total number of faults injected since the last {!configure}/{!reset}. *)

val events : unit -> event list
(** Fired events, oldest first. *)

val sleep : float -> unit
(** Sleep helper for [Delay] faults; the argument is seconds (the [Delay]
    payload can be passed directly). *)

val kill_self : unit -> 'a
(** Send SIGKILL to the current process (for [Kill] faults). *)
