(** Incremental view maintenance of cached fixpoint results under
    [patch-doc] document edits.

    The theory (Alvarez-Picallo et al., "Fixing Incremental
    Computation") says the derivative of a fixpoint is itself a
    fixpoint: a small document edit can be absorbed by re-entering the
    existing [∆ ← body(∆) except res] delta loop from the {e edit
    frontier} instead of recomputing from scratch. This module holds the
    machinery: a bounded store of {e maintained entries} (one per cached
    result the service adopted), and {!on_patch}, which drops a cached
    result's deleted nodes (the edit is in place, so the rest keep their
    identity) and runs the differential loop from the edit frontier.

    Eligibility comes from {!Fixq_analysis.Analyze.ivm_eligibility}:
    [Ivm_full] entries survive inserts, deletes, replaces and text
    edits; [Ivm_insert_only] entries survive inserts and fall back to
    recompute otherwise; ineligible programs are never adopted. All
    fallbacks and failures are loud in the per-query counters so
    operators can see which workloads actually benefit. *)

type entry

type outcome =
  | Maintained of { serialized : string; delta_count : int; rounds : int }
      (** the updated serialized result, how many nodes entered/left it,
          and how many delta rounds the maintenance loop ran *)
  | Dropped of string  (** entry removed; the reason for the fallback *)

type t

val create : ?capacity:int -> registry:Fixq_xdm.Doc_registry.t -> unit -> t

(** Entries currently maintained. *)
val size : t -> int

(** Re-export of {!Fixq_analysis.Analyze.ivm_eligibility}. *)
val eligibility :
  ?stratified:bool -> Fixq_lang.Ast.program -> Fixq_analysis.Analyze.ivm_class

(** [adopt t ~hash ~config …] captures a just-computed result for future
    maintenance. No-op unless the program's main expression is an
    eligible fixed point and [result] is all nodes. Also evaluates and
    records the seed — the pre-edit seed cannot be recovered after the
    registry holds a patched tree. [footprint] is the per-doc generation
    footprint the execution recorded. *)
val adopt :
  t ->
  hash:string ->
  config:string ->
  program:Fixq_lang.Ast.program ->
  stratified:bool ->
  max_iterations:int ->
  result:Fixq_xdm.Item.seq ->
  footprint:(string * int) list ->
  unit

(** Drop entries whose footprint mentions [uri] (document replaced or
    unloaded wholesale — its nodes are gone). *)
val on_unload : t -> uri:string -> unit

(** [on_patch t ~uri ~op delta] maintains (or drops) every entry whose
    footprint mentions [uri], returning per-entry outcomes keyed by
    [(hash, config)]. Maintained entries keep their updated state for
    the next patch; dropped entries are removed and counted as
    fallbacks. *)
val on_patch :
  t ->
  uri:string ->
  op:Fixq_xdm.Patch.op ->
  Fixq_xdm.Patch.delta ->
  ((string * string) * outcome) list

(** Per-query-hash [(maintained, fallback, cumulative ∆ nodes)]
    counters, sorted by hash. Counters survive entry eviction. *)
val counters : t -> (string * (int * int * int)) list

(** Sums of {!counters} across queries. *)
val totals : t -> int * int * int
