(** The prepared-query layer: everything about a query that does not
    depend on {e when} it runs, computed once and cached.

    Preparing a query performs the whole per-query pipeline of the
    paper — parse (with source spans), static check, the full analyzer
    pass ({!Fixq_analysis.Analyze}: lint rules, distributivity blame,
    divergence classification), compilation of the first IFP body to a
    Table-1 algebra plan, the algebraic ∪ push-up (Section 4.1) and
    the cost estimate — and pins one fixpoint algorithm for every
    engine: Delta/µ∆ when either check proves distributivity
    (Theorem 3.2), Naïve/µ when both reject.
    Repeat runs of the same query text skip all of it (an LRU cache in
    the server keys prepared queries by source text).

    The SQL:1999 rendering of the first IFP body is not part of
    preparing: it optimizes the plan first, which costs more than the
    rest of the pipeline, and only the sql engine's estimate reads it.
    {!with_sql} renders it on demand from the captured plan, for the
    readers of the SQL verdict or of the per-engine estimate rows
    (serve's [check] and [explain], [sql]/[auto] runs, [bench -- cost]);
    {!inspect} returns it rendered.

    For programs with more than one IFP the pinned mode degrades to
    [Auto]: the first site's verdict must not be forced onto the
    others, and [Auto] re-decides per site exactly as an unprepared run
    would. *)

type t = {
  source : string;
  hash : string;  (** hex digest of [source] — the result-cache key *)
  program : Fixq.Lang.Ast.program;
  spans : Fixq.Lang.Parser.Spans.t;
      (** node → source position side-table from parsing *)
  warnings : string list;
      (** static warnings; static errors reject, except in {!inspect}
          where they are listed here too *)
  analysis : Fixq_analysis.Analyze.t;
      (** located diagnostics and per-IFP reports *)
  push : Fixq_algebra.Push.outcome option;
      (** full ∪ push-up outcome, including the blocking operator *)
  ifp_count : int;
  syntactic : bool;  (** Figure 5 verdict for the first IFP ([false] if none) *)
  algebraic : bool option;
      (** ∪ push-up verdict; [None] when the body is outside the
          compilable subset or there is no IFP *)
  plan : (int * Fixq.Algebra_ir.Plan.t) option;
      (** fix-ref id and compiled plan of the first IFP body *)
  sql : (Fixq_algebra.Render_sql.rendered, string) result option;
      (** SQL:1999 rendering of the first IFP body: [None] until
          rendered on demand by {!with_sql}, and after it when there is
          no IFP or no compilable plan *)
  cost : Fixq_cost.Estimate.t;
      (** synopsis-driven cost & cardinality estimate: per-operator
          cardinalities, certified round bound, per-engine costs and the
          cheapest-engine verdict ([--engine auto]). Until {!with_sql}
          the sql row is the unrendered one ([work + 5]); every other
          field is final. *)
  mode : Fixq.mode;
      (** pinned algorithm for every engine: [Delta] when {!delta_by} is
          [Some _], [Naive] when both checks reject, [Auto] for
          multi-IFP programs and for a first IFP without an algebraic
          verdict (the site re-decides with the same two checks) *)
  stratified : bool;  (** checks ran with the Section-6 refinement *)
  generation : int;  (** registry generation at preparation time *)
  prepare_ms : float;
}

(** Parse or static errors. [message] is the legacy one-line rendering;
    [diagnostics] the located, coded findings behind it. *)
exception
  Rejected of {
    message : string;
    diagnostics : Fixq_analysis.Diag.t list;
  }

(** [prepare ~store ~stratified ~max_iterations src] runs the full
    pipeline except the SQL rendering ([sql = None]). Compiling the
    first IFP body requires evaluating the surrounding program up to
    that site, so preparation may read documents from [store];
    [max_iterations] bounds that evaluation (preparing a divergent query
    terminates with the plan simply not captured).

    @raise Rejected on parse errors or static errors. *)
val prepare :
  store:Store.t -> stratified:bool -> max_iterations:int -> string -> t

(** [with_sql ~store t] — [t] with the first IFP body's SQL rendered
    from the captured plan and the cost estimate re-run with that
    verdict against [store]'s current synopses. [t] itself when it is
    already rendered or has no plan (the estimate is the same then).
    Every reader of [sql], of the sql engine's estimate row or of the
    cheapest-engine verdict calls this first. *)
val with_sql : store:Store.t -> t -> t

(** [inspect] is {!prepare} without the static-error gate and with the
    SQL rendered ({!with_sql}), for the command-line inspection tools
    ([fixq check], [lint], [explain]): a program with static errors is
    still analyzed, planned and costed, so its findings can be reported
    in full.

    @raise Rejected on parse errors only. *)
val inspect :
  store:Store.t -> stratified:bool -> max_iterations:int -> string -> t

(** [refresh ~store t] — [t] unchanged when the store generation still
    matches [t]'s; otherwise a copy with only the cost estimate re-run
    against the current synopses. The text-derived parts (parse,
    static check, verdicts, plan) are generation-independent and keep
    their amortization; the cost estimate is not, and admission or
    engine choice acting on a pre-[patch-doc] estimate would mis-gate
    grown documents. *)
val refresh : store:Store.t -> t -> t

(** Which check licenses Delta for the first IFP:
    [Some "syntactic"], [Some "algebraic"] or [None]
    (see {!Fixq.delta_by}). *)
val delta_by : t -> string option

(** All located diagnostics for the query, sorted by position: the
    analyzer's with the compiled plan's verdict folded in
    ({!Fixq_analysis.Analyze.with_push}: the FQ031 push-block mapping,
    FQ030 demoted to info when the push-up licenses Delta), plus the
    cost analyzer's. *)
val diagnostics : t -> Fixq_analysis.Diag.t list

(** Divergence class of the first IFP ([None] when the query has no
    fixed point). *)
val divergence : t -> Fixq_analysis.Analyze.divergence option

(** [accumulate by] kind of the first IFP ([None] for a plain
    fixpoint or a query without one). *)
val semiring : t -> Fixq_semiring.Semiring.kind option

(** The engine the cost model picked as cheapest — what [--engine auto]
    resolves to. Read it from a {!with_sql} result. *)
val chosen_engine : t -> [ `Interp | `Algebra | `Sql ]

val hash_source : string -> string
