(** Incremental view maintenance of cached fixpoint results under
    [patch-doc] document edits, by the untouched rule alone.

    The derivative of a fixpoint is itself a fixpoint (Alvarez-Picallo
    et al., "Fixing Incremental Computation"), and the derivative over
    an unchanged input is zero. This module decides, per edit, whether
    one cached result's input is unchanged: {!adopt} captures a
    {!state} when an eligible result is computed, and {!untouched} says
    whether an applied patch left that result as it was. A result the
    edit may reach is dropped by the server and recomputed on its next
    read. The module keeps no store of its own: the server's result
    cache holds each state inside its entry, so evicting an entry
    evicts its state with it.

    Eligibility is {!Fixq_analysis.Analyze.ivm_eligibility}, the one
    grammar the rule rests on; ineligible programs are never adopted. *)

(** What the untouched rule reads of one cached result: the seed nodes
    in document order and the names the seed tests, plus the query
    text, stratified flag and iteration cap it was adopted under. *)
type state

(** [adopt ~registry ~source ~program ~stratified ~max_iterations]
    captures the state of an eligible program against the documents the
    registry holds now: it evaluates the seed. [None] for an ineligible
    program or a seed that fails to evaluate. The server adopts right
    after a run, and again on recovery from a snapshot. *)
val adopt :
  registry:Fixq_xdm.Doc_registry.t ->
  source:string ->
  program:Fixq_lang.Ast.program ->
  stratified:bool ->
  max_iterations:int ->
  state option

(** [untouched state delta] — the applied patch [delta] cannot have
    changed the result: no element or attribute of its inserted or
    removed subtrees carries a name the seed tests, and no seed node is
    an ancestor-or-self of the edit point. Every fed node then lies in
    a subtree the edit left alone, and the cached bytes and the state
    stand as they are. *)
val untouched : state -> Fixq_xdm.Patch.delta -> bool

(** The query text the state was adopted from. *)
val source : state -> string

val stratified : state -> bool
val max_iterations : state -> int
