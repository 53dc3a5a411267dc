(** [fixq] — an inflationary fixed point operator for XQuery.

    This is the public entry point of the reproduction of Afanasiev,
    Grust, Marx, Rittinger, Teubner: {e An Inflationary Fixed Point
    Operator in XQuery} (ICDE 2008). It runs queries of the extended
    XQuery subset (including [with $x seeded by … recurse …]) on two
    engines:

    - {!Interpreter}: a conventional tree-walking processor (the Saxon
      stand-in).
    - {!Algebra}: the Relational-XQuery hybrid (the MonetDB/XQuery
      stand-in). Each IFP body is compiled to a Table-1 algebra plan
      and run by the µ or µ∆ fixpoint operator over [iter|item]
      relations with staircase-join steps. Bodies outside the
      compilable subset fall back to the interpreter.
    - {!Sql}: the SQL:1999 comparison engine (Sections 2 and 6). IFP
      plans that render to a linear [WITH RECURSIVE] query (see
      {!Algebra_ir.Render_sql}) run on the {!Fixq_sqlrec} evaluator
      over materialized document relations; everything else falls back
      to the interpreter, so results stay byte-identical.

    Re-exported substrate libraries: {!Xdm} (data model), {!Lang}
    (language), {!Algebra_ir} (plans), {!Store} (pre/size/level
    encoding).

    Every engine's [Auto] mode trades Naïve for Delta under one licence
    per IFP body: the {e syntactic} check (Figure 5) or, when it
    rejects, the {e algebraic} ∪ push-up (Section 4.1) on the body's
    Table-1 plan. Theorem 3.2 makes either sufficient. The verdicts are
    computed once per body expression per run and shared by all
    engines. *)

module Xdm = Fixq_xdm
module Lang = Fixq_lang
module Algebra_ir = Fixq_algebra
module Store = Fixq_store

(** Fixpoint algorithm selection for either engine. *)
type mode =
  | Naive  (** always Figure 3(a) / µ *)
  | Delta  (** always Figure 3(b) / µ∆ — unsound if non-distributive *)
  | Auto
      (** Delta when Figure 5 or the ∪ push-up accepts the body — the
          same licence on every engine *)

type engine = Interpreter of mode | Algebra of mode | Sql of mode

(** Outcome of a query run, with the instrumentation that Table 2
    reports. *)
type report = {
  result : Xdm.Item.seq;
  engine : engine;
  used_delta : bool option;  (** [None] if the query had no IFP *)
  nodes_fed : int;  (** total nodes fed into recursion bodies *)
  depth : int;  (** recursion depth (IFP iterations) *)
  wall_ms : float;
  fallbacks : string list;
      (** algebra-engine IFP sites that fell back to the interpreter,
          with reasons *)
  semiring : string option;
      (** the [accumulate by] kind of the last annotated IFP, if any *)
  annotations : (string * string) list;
      (** [(serialized node, annotation)] pairs of the last annotated
          IFP, in document order — how [run]/[client] print
          [node @ annotation] *)
}

exception Error of string

(** Compile-and-run a query string. [max_iterations] bounds every IFP
    (default 1,000,000); exceeding it raises {!Error} — relevant for
    bodies with node constructors, whose fixed points may be undefined
    (Definition 2.1). [stratified] (default [false]) extends both
    [Auto] distributivity checks with the Section-6
    stratified-difference rule ([$x except R] with fixed [R]).
    [deadline] (absolute [Unix.gettimeofday] seconds) aborts the run
    with {!Error} once the wall clock passes it; enforcement is
    cooperative, checked once per fixpoint round on either engine — the
    budget knob of the long-running [fixq serve] front end.
    [round_hook] is called
    once per fixpoint round (same cooperative site as [deadline], before
    the deadline check) — the serving layer's resource governor uses it
    to abort runs whose heap growth exceeds their memory budget; any
    exception it raises propagates out of the run unconverted.
    [max_call_depth] bounds user-function recursion depth (default
    100,000; exceeding it raises {!Error}). *)
val run :
  ?registry:Xdm.Doc_registry.t ->
  ?max_iterations:int ->
  ?stratified:bool ->
  ?deadline:float ->
  ?round_hook:(unit -> unit) ->
  ?max_call_depth:int ->
  engine:engine ->
  string ->
  report

(** Parse a query. A parse or lex failure raises {!Error} with a
    located message (["parse error at L:C: …"]). *)
val parse : string -> Lang.Ast.program

(** Run an already-parsed program. *)
val run_program :
  ?registry:Xdm.Doc_registry.t ->
  ?max_iterations:int ->
  ?stratified:bool ->
  ?deadline:float ->
  ?round_hook:(unit -> unit) ->
  ?max_call_depth:int ->
  engine:engine ->
  Lang.Ast.program ->
  report

(** The recursion variable and body of the first IFP in the program
    (document order, main expression before function bodies). *)
val first_ifp : Lang.Ast.program -> (string * Lang.Ast.expr) option

(** Number of [with … seeded by … recurse] sites in the whole program.
    The prepared-query layer pins a fixpoint algorithm at preparation
    time only for single-IFP programs; anything else keeps the per-site
    [Auto] decision. *)
val count_ifps : Lang.Ast.program -> int

(** The distinct literal [doc("uri")] references of the whole program
    (main expression, function bodies, global variable declarations),
    in first-occurrence order. Document-sharded routing keys on
    these. *)
val doc_uris : Lang.Ast.program -> string list

(** Both distributivity verdicts for the body of the {e first} IFP in
    the program: [(syntactic, algebraic)]. The algebraic verdict is
    [None] when the body is outside the compilable subset.
    [stratified] enables the Section-6 refinement in both checks. *)
val distributivity_verdicts :
  ?registry:Xdm.Doc_registry.t ->
  ?stratified:bool ->
  Lang.Ast.program ->
  (bool * bool option) option

(** Which check licenses Delta for a body, given its
    [(syntactic, algebraic)] verdicts: ["syntactic"] when Figure 5
    accepts, else ["algebraic"] when the ∪ push-up does, else [None].
    Theorem 3.2 makes either sufficient, and every engine's [Auto] runs
    Delta exactly when this is [Some _]. *)
val delta_by : syntactic:bool -> algebraic:bool option -> string option

(** Compile the first IFP body of a program to its algebra plan (for
    plan inspection à la Figure 9). Returns the fix-ref id and plan.
    Free variables and context of the body are materialized by
    evaluating the surrounding program as far as needed — bounded by
    [max_iterations] so preparing a divergent query terminates. *)
val plan_of_first_ifp :
  ?registry:Xdm.Doc_registry.t ->
  ?max_iterations:int ->
  Lang.Ast.program ->
  (int * Algebra_ir.Plan.t) option

(** The SQL:1999 rendering of a captured plan (as returned by
    {!plan_of_first_ifp}), optimized first — the [WITH RECURSIVE] query
    the {!Sql} engine would run at that site, or the reason there is
    none. *)
val sql_of_plan :
  int * Algebra_ir.Plan.t -> (Algebra_ir.Render_sql.rendered, string) result

(** {!sql_of_plan} of {!plan_of_first_ifp}: [None] when no IFP body
    compiles at all. *)
val sql_of_first_ifp :
  ?registry:Xdm.Doc_registry.t ->
  ?max_iterations:int ->
  Lang.Ast.program ->
  (Algebra_ir.Render_sql.rendered, string) result option
