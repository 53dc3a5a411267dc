(** Instrumentation counters for fixed point evaluation.

    The paper's Table 2 reports, besides wall-clock times, the {e total
    number of nodes fed back} into the recursion body and the {e
    recursion depth}. One [t] is threaded through an evaluation and
    collects exactly those numbers, plus a per-iteration trace used to
    reproduce the iteration table of Example 2.4. *)

type iteration = {
  fed : int;  (** nodes fed into the body this round *)
  produced : int;  (** nodes the body returned *)
  result_size : int;  (** accumulated result after the round *)
  round_ms : float;  (** wall-clock spent in this round *)
}

(** Immutable copy of the totals, cheap to store alongside a cached
    query result. *)
type snapshot = {
  snap_fed : int;
  snap_calls : int;
  snap_depth : int;
}

type t

val create : unit -> t
val reset : t -> unit

(** Record one payload invocation. *)
val record_iteration : t -> fed:int -> produced:int -> result_size:int -> unit

(** [snapshot t] copies the current totals. *)
val snapshot : t -> snapshot

(** Install (or clear) a callback invoked after every
    {!record_iteration} — i.e. once per fixpoint round on either
    engine. The hook may raise to abort the evaluation; the query
    service uses exactly that to enforce per-request wall-clock
    deadlines without the language layers needing a clock. *)
val set_iteration_hook : t -> (unit -> unit) option -> unit

(** Total nodes fed into the recursion body, across all IFP evaluations
    recorded by this [t]. *)
val nodes_fed : t -> int

(** Maximum recursion depth (iterations of a single IFP run). *)
val depth : t -> int

(** Payload invocations in total. *)
val payload_calls : t -> int

(** Iterations of the most recent IFP run, oldest first. *)
val last_run : t -> iteration list

(** Wall-clock milliseconds spent across all recorded rounds. *)
val total_ms : t -> float

(** Mark the start of a new IFP run (clears the per-run trace, keeps the
    totals). *)
val start_run : t -> unit

val pp : Format.formatter -> t -> unit
