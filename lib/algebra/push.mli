(** The algebraic distributivity check of Section 4.1: place a ∪ at the
    recursion input ({!Plan.Fix_ref}) and push it up towards the plan
    root (Figures 7 and 8).

    The per-operator verdicts follow the Push? column of Table 1
    (π σ ⊚ # step ⋈ × ∪ admit the push; δ \ aggregates ̺ ε block it).
    Two refinements from the paper's prose are implemented:

    - {e simplification for assessment}: since distributivity disregards
      duplicates (Definition 3.1), {!check}'s [simplify] crosses δ
      operators on the fly; a ̺ still blocks, because every ̺ in a plan
      realizes a positional predicate;
    - {e big steps}: compiler-emitted {!Plan.Template} fragments are
      crossed in a single step (Figure 7(b)).

    A binary operator reached by the ∪ through {e both} inputs blocks
    the push (splitting [(X∪Y) ⋈ (X∪Y)] is unsound) — except ∪
    itself. *)

type outcome = {
  distributive : bool;
  blocking : string option;  (** symbol of the operator that blocked *)
  steps : string list;  (** operators crossed, in push order *)
}

(** Check whether the ∪ can be pushed from [Fix_ref fix_id] to the plan
    root. [simplify] (default [true]) removes δ operators on the fly
    (legal for assessment). [stratified] (default [false]) additionally
    lets the ∪ cross a difference whose {e right} input is fixed —
    [(X∪Y) \ R = (X\R) ∪ (Y\R)] — the Section-6 refinement. *)
val check :
  ?simplify:bool -> ?stratified:bool -> fix_id:int -> Plan.t -> outcome

val pp_outcome : Format.formatter -> outcome -> unit
