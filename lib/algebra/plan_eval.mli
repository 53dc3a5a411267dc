(** Column-engine evaluation of algebra plans — the MonetDB/XQuery
    stand-in.

    XPath step joins run over the pre/size/level encoding through the
    staircase join ({!Fixq_store.Staircase}); µ and µ∆ implement Naïve
    and Delta at the algebra level, re-binding the plan's {!Plan.Fix_ref}
    leaf on each round and recording fed/produced tuple counts in a
    {!Fixq_lang.Stats.t}. Because [iter] is part of every tuple, a
    loop-lifted fixpoint iterates all outer iterations in one relational
    computation (one of the paper's selling points for the algebraic
    route). *)

exception Error of string

type t

val create :
  ?registry:Fixq_xdm.Doc_registry.t ->
  ?max_iterations:int ->
  stats:Fixq_lang.Stats.t ->
  unit ->
  t

val stats : t -> Fixq_lang.Stats.t

(** Evaluate a closed plan (no unbound [Fix_ref]). *)
val run : t -> Plan.t -> Relation.t

(** A session carries the memo for plans that depend on externally
    bound references; callers that re-run the same plan with the same
    binding values may pass the same session to keep those
    materializations (e.g. a query computing one fixpoint per person
    evaluates [$doc//open_auction] once, not once per person). *)
type session

val new_session : unit -> session

(** Evaluate with fixpoint references pre-bound (used by µ/µ∆ and by
    tests that drive a body plan manually). A fresh session is used
    when none is given. *)
val run_with :
  t -> ?session:session -> (int * Relation.t) list -> Plan.t -> Relation.t

(**/**)
