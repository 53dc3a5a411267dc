(** Evaluator for the [fixq] XQuery subset — the conventional-processor
    stand-in (the paper's Saxon experiments translate one-to-one to this
    engine). Each {!run_program} or {!eval_expr} call compiles its
    program once into closures, with variables resolved to frame slots
    and builtins to function values, and then runs them.

    The evaluator owns a function environment, a document registry, a
    {!Stats.t} for fixpoint instrumentation, and an IFP strategy:

    - [Naive]: always run Figure 3(a);
    - [Delta]: always run Figure 3(b) — {e unsound} for
      non-distributive bodies (exposed deliberately, to reproduce
      Example 2.4);
    - [Auto]: run Delta when the syntactic distributivity check
      ({!Distributivity.check}) accepts the body or, failing that, the
      installed {!set_delta_licence} callback does (Theorem 3.2 makes
      either check sufficient); else fall back to Naive — the mode a
      production processor would ship.

    Within one evaluation, the maximal subexpressions of a [for] body or
    filter predicate that read nothing the loop binds are evaluated at
    most once per loop instance, on first use; a general [=] against
    one atomizes it once (a hash probe when both sides are strings),
    and [child::T\[k\]] and the sibling axes with a literal [k] read
    the children array directly. Predicates and conditions run in a
    boolean mode that builds no result list. None of this changes a
    result, an error or the fixpoint statistics, and the AST is never
    rewritten. *)

type strategy = Naive | Delta | Auto

type t

exception Error of string

val create :
  ?registry:Fixq_xdm.Doc_registry.t ->
  ?strategy:strategy ->
  ?max_iterations:int ->
  ?max_call_depth:int ->
  ?stratified:bool ->
  unit ->
  t
(** [stratified] extends [Auto]'s distributivity check with the
    Section-6 stratified-difference rule (see
    {!Distributivity.check}). *)

val stats : t -> Stats.t
val strategy : t -> strategy
val set_strategy : t -> strategy -> unit
val registry : t -> Fixq_xdm.Doc_registry.t
val functions : t -> (string, Ast.fundef) Hashtbl.t

(** Whether the most recent IFP evaluation used Delta ([None] before any
    IFP ran). *)
val last_ifp_used_delta : t -> bool option

(** Annotated result of the most recent [accumulate by] fixpoint: the
    semiring kind and each accumulated node's final annotation, in
    document order. [None] before any annotated IFP ran. *)
val last_annotations :
  t ->
  (Fixq_semiring.Semiring.kind
  * (Fixq_xdm.Node.t * Fixq_semiring.Semiring.ann) list)
  option

(** Everything an external IFP executor needs about an [Ifp] site: the
    recursion variable, the evaluated seed, the body expression, the
    [accumulate by] clause (if any), the values of the body's other
    free variables, and the context item. *)
type ifp_site = {
  ifp_var : string;
  ifp_seed : Fixq_xdm.Item.seq;
  ifp_body : Ast.expr;
  ifp_accum : Ast.accum option;
  ifp_bindings : (string * Fixq_xdm.Item.seq) list;
  ifp_context : Fixq_xdm.Item.t option;
}

(** Install (or clear) an external IFP executor — the hook the hybrid
    algebraic engine uses to run fixpoints as µ/µ∆ plans. A [None]
    result means "cannot handle this site" and the evaluator falls back
    to its own strategy; exceptions propagate. *)
val set_ifp_handler :
  t -> (ifp_site -> Fixq_xdm.Item.seq option) option -> unit

(** Install (or clear) [Auto]'s second distributivity opinion: called
    for an IFP site only when Figure 5 rejects its body, and Delta runs
    when it returns [true]. {!Fixq.run_program} installs the algebraic
    ∪ push-up here, memoized per body expression. *)
val set_delta_licence : t -> (ifp_site -> bool) option -> unit

(** Install the functions and evaluate the global variable declarations
    of a program, then evaluate its main expression. *)
val run_program : t -> Ast.program -> Fixq_xdm.Item.seq

(** Evaluate one expression under optional variable bindings and
    context item. Program functions/globals installed by a previous
    {!run_program} (or {!load_prolog}) remain visible. *)
val eval_expr :
  t ->
  ?vars:(string * Fixq_xdm.Item.seq) list ->
  ?context:Fixq_xdm.Item.t ->
  Ast.expr ->
  Fixq_xdm.Item.seq

(** Install a program's functions and globals without running [main]. *)
val load_prolog : t -> Ast.program -> unit

(** Convenience: parse and run a complete query string. *)
val run_string : t -> string -> Fixq_xdm.Item.seq
