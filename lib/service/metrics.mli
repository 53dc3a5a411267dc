(** Per-query latency aggregates for the [stats] protocol op.

    One record per prepared-query hash: execution count, total/min/max
    wall milliseconds. Only actual executions are recorded — result
    -cache hits never reach the engine, and their (near-zero) service
    time would only flatter the numbers; the cache counters already
    tell that story. Thread-safe. *)

type t

val create : unit -> t

(** [record t ~key ~label ~ms] folds one execution into the aggregate
    for [key]. [label] is a human-readable identifier (a query preview)
    kept for reporting. *)
val record : t -> key:string -> label:string -> ms:float -> unit

(** All aggregates as a JSON array, most-executed first. Each element:
    [{"query": label, "count": n, "total_ms": t, "min_ms": m,
    "max_ms": M, "mean_ms": µ}]. *)
val to_json : t -> Json.t

(** A point-in-time copy of one aggregate (for exports that outlive the
    lock, e.g. the Prometheus exposition). *)
type snapshot = {
  s_label : string;
  s_count : int;
  s_total_ms : float;
  s_min_ms : float;
  s_max_ms : float;
}

(** Aggregates sorted most-executed first, copied under the lock. *)
val snapshots : t -> snapshot list

(** Escape a string for use as a Prometheus label value (backslash,
    double quote, newline). *)
val escape_label : string -> string

(** The Prometheus text-exposition writer every [stats] exposition
    uses. [family buf kind name samples] appends one [# TYPE] header and
    one line per [(labels, value)] sample; [labels] is the text inside
    the braces (none when [""]) and [value] is already formatted. *)
type kind = Counter | Gauge

val family : Buffer.t -> kind -> string -> (string * string) list -> unit

(** One unlabelled gauge sample under its own header. *)
val gauge : Buffer.t -> string -> string -> unit

(** One unlabelled integer counter sample under its own header. *)
val counter : Buffer.t -> string -> int -> unit

(** Prometheus text-exposition lines for the per-query aggregates:
    [<prefix>_query_executions_total{query="…"}] and
    [<prefix>_query_ms_total{query="…"}], with one [# TYPE] header per
    family. [labels] (e.g. [{|worker="w0"|}]) is spliced into every
    sample's label set. *)
val to_prometheus : ?labels:string -> prefix:string -> t -> string
