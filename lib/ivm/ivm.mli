(** Incremental view maintenance of cached fixpoint results under
    [patch-doc] document edits.

    The theory (Alvarez-Picallo et al., "Fixing Incremental
    Computation") says the derivative of a fixpoint is itself a
    fixpoint: a small document edit can be absorbed by re-entering the
    existing [∆ ← body(∆) except res] delta loop from the {e edit
    frontier} instead of recomputing from scratch. This module holds
    that machinery as functions over one cached result's {!state}:
    {!adopt} captures the state when a result is computed, and
    {!maintain} leaves it untouched when the edit cannot reach it, or
    else drops the result's deleted nodes (the edit is in place, so the
    rest keep their identity) and runs the differential loop from the
    edit frontier. The module keeps no store of its own: the
    server's result cache holds each state inside the entry it
    maintains, so evicting an entry evicts its state with it.

    Eligibility comes from {!Fixq_analysis.Analyze.ivm_eligibility}:
    [Ivm_full] states survive inserts, deletes, replaces and text
    edits; [Ivm_insert_only] states survive inserts and fall back to
    recompute otherwise; ineligible programs are never adopted. *)

(** What maintaining one cached result needs: the adopted program and
    its query text, the seed and result nodes, and the eligibility
    class. *)
type state

type outcome =
  | Maintained of {
      state : state;  (** the state after the edit *)
      escaped : string;
          (** the updated result as a JSON string literal
              ({!Fixq_xdm.Serializer.seq_to_json}) *)
      delta_count : int;  (** how many nodes entered or left it *)
      rounds : int;  (** delta rounds the maintenance loop ran *)
    }
  | Untouched
      (** the edit cannot reach the result: the cached bytes and the
          state stand as they are *)
  | Dropped of string  (** the reason for the fallback to recompute *)

(** [adopt ~registry ~source ~program ~stratified ~max_iterations
    result] captures a just-computed result for future maintenance.
    [None] unless the program's main expression is an eligible fixed
    point and [result] is all nodes. Also evaluates and records the
    seed — the pre-edit seed cannot be recovered after the registry
    holds a patched tree. *)
val adopt :
  registry:Fixq_xdm.Doc_registry.t ->
  source:string ->
  program:Fixq_lang.Ast.program ->
  stratified:bool ->
  max_iterations:int ->
  Fixq_xdm.Item.seq ->
  state option

(** [maintain ~registry ~op delta state] absorbs one applied patch of a
    document the state's result was computed from.

    It answers [Untouched], for [full] and [insert-only] states alike,
    when three facts decided at {!adopt} and at the patch all hold: the
    recursion body reads only its variable and its own [let]s; the seed
    is named element and attribute steps under one [doc("literal")],
    and no element or attribute of the inserted or removed subtrees
    carries a name it tests; and no seed node is an ancestor-or-self of
    the edit point. Every fed node then lies in a subtree the edit left
    alone. A state whose body reads outside its variable is otherwise
    dropped: a [doc(…)] or global read in a predicate can flip on old
    nodes that the edit frontier never re-feeds. Any other state is
    maintained or dropped as its class says. *)
val maintain :
  registry:Fixq_xdm.Doc_registry.t ->
  op:Fixq_xdm.Patch.op ->
  Fixq_xdm.Patch.delta ->
  state ->
  outcome

(** The query text the state was adopted from. *)
val source : state -> string

val stratified : state -> bool
val max_iterations : state -> int

(** The result nodes, in the order the result serializes them. *)
val nodes : state -> Fixq_xdm.Node.t list
