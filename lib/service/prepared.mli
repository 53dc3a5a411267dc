(** The prepared-query layer: everything about a query that depends
    only on its text, computed once and cached.

    Preparing a query performs the whole per-query pipeline of the
    paper — parse (with source spans), static check, the full analyzer
    pass ({!Fixq_analysis.Analyze}: lint rules, distributivity blame,
    divergence classification), compilation of the first IFP body to a
    Table-1 algebra plan and the algebraic ∪ push-up (Section 4.1) —
    and pins one fixpoint algorithm for every engine: Delta/µ∆ when
    either check proves distributivity (Theorem 3.2), Naïve/µ when both
    reject.
    Repeat runs of the same query text skip all of it (an LRU cache in
    the server keys prepared queries by source text).

    The cost estimate is not part of a prepared entry: it reads the
    document synopses, which change under [load-doc] and [patch-doc],
    so {!cost} computes it for each reader (admission under
    [--max-cost], serve's [check] and [explain], [fixq explain]/[lint]).

    The SQL:1999 rendering of the first IFP body is not part of
    preparing either: it optimizes the plan first, which costs more
    than the rest of the pipeline, and only the SQL verdict and the sql
    engine's estimate row read it. {!with_sql} renders it on demand
    from the captured plan (serve's [check] and [explain], [sql] runs
    under [--max-cost], [bench -- cost]); {!inspect} returns it
    rendered.

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
  mode : Fixq.mode;
      (** pinned algorithm for every engine: [Delta] when {!delta_by} is
          [Some _], [Naive] when both checks reject, [Auto] for
          multi-IFP programs and for a first IFP without an algebraic
          verdict (the site re-decides with the same two checks) *)
  stratified : bool;  (** checks ran with the Section-6 refinement *)
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

(** [with_sql t] — [t] with the first IFP body's SQL rendered from the
    captured plan; [t] itself when it is already rendered or has no
    plan. Every reader of [sql] or of the sql engine's estimate row
    calls this first. *)
val with_sql : t -> t

(** [inspect] is {!prepare} without the static-error gate and with the
    SQL rendered ({!with_sql}), for the command-line inspection tools
    ([fixq check], [lint], [explain]): a program with static errors is
    still analyzed and planned (and {!cost} still estimates it), so its
    findings can be reported in full.

    @raise Rejected on parse errors only. *)
val inspect :
  store:Store.t -> stratified:bool -> max_iterations:int -> string -> t

(** [cost ~store t] — the synopsis-driven cost & cardinality estimate
    ({!Fixq_cost.Estimate.analyze}) of [t] against [store]'s documents
    as they are now: per-operator cardinalities, the certified round
    bound, per-engine costs and the FQ050–FQ054 findings. Computed on
    each call and never cached, so it cannot go stale. Before
    {!with_sql} the sql row is the unrendered one ([work + 5]). *)
val cost : store:Store.t -> t -> Fixq_cost.Estimate.t

(** Which check licenses Delta for the first IFP:
    [Some "syntactic"], [Some "algebraic"] or [None]
    (see {!Fixq.delta_by}). *)
val delta_by : t -> string option

(** All located diagnostics for the query, sorted by position: the
    analyzer's with the compiled plan's verdict folded in
    ({!Fixq_analysis.Analyze.with_push}: the FQ031 push-block mapping,
    FQ030 demoted to info when the push-up licenses Delta), plus
    [cost]'s (a {!cost} report for [t]). *)
val diagnostics :
  cost:Fixq_cost.Estimate.t -> t -> Fixq_analysis.Diag.t list

(** Divergence class of the first IFP ([None] when the query has no
    fixed point). *)
val divergence : t -> Fixq_analysis.Analyze.divergence option

(** [accumulate by] kind of the first IFP ([None] for a plain
    fixpoint or a query without one). *)
val semiring : t -> Fixq_semiring.Semiring.kind option

val hash_source : string -> string
