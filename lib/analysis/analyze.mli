(** Static analysis over parsed programs: located lint findings,
    distributivity blame, and divergence classification for every
    inflationary fixed point.

    This sits above {!Fixq_lang} (syntax, Figure-5 distributivity) and
    {!Fixq_algebra} (the ∪-push over Table-1 plans) and below the
    service/cluster layers, which consume its verdicts instead of
    re-deriving them. *)

module Lang = Fixq_lang
module Push = Fixq_algebra.Push

(** Termination classification of one IFP (conservative):

    - [Terminates]: seed and body are node-only over loaded documents —
      the accumulator is bounded by the finite node universe, so the
      fixed point is reached (Section 2.2 of the paper).
    - [Bounded]: the body mints no fresh nodes and no new atoms by
      arithmetic; the value universe is bounded but not node-only.
    - [May_diverge reason]: the body can mint fresh values every round
      (node constructors, or arithmetic over the recursion variable). *)
type divergence = Terminates | Bounded | May_diverge of string

val divergence_string : divergence -> string

val divergence_reason : divergence -> string option

(** Per-IFP analysis. [blame] is present iff [syntactic] is [false];
    [hint_repairable] says {!Lang.Rewrite.distributivity_hint} applied
    to [body] would satisfy Figure 5 (no constructor, no positional
    access, no [order by], no nested IFP). *)
type ifp_report = {
  index : int;  (** position in program order (main, functions, globals) *)
  var : string;
  context : string;
  loc : (int * int) option;
  seed : Lang.Ast.expr;
  body : Lang.Ast.expr;
  node_only_seed : bool;
  node_only_body : bool;
  semiring : Fixq_semiring.Semiring.kind option;
      (** the [accumulate by] kind, [None] for a plain IFP *)
  divergence : divergence;
  syntactic : bool;  (** Figure-5 [ds] verdict on the body *)
  blame : Lang.Distributivity.blame option;
  hint_repairable : bool;
}

type t = {
  diagnostics : Diag.t list;  (** sorted by source position *)
  ifps : ifp_report list;  (** in program order *)
}

(** Conservative syntactic check that [e] evaluates to document-tree
    nodes only — never atoms, never freshly constructed nodes. [env]
    lists the variables known to be bound to node-only sequences; the
    divergence classifier builds on it. *)
val node_only : env:string list -> Lang.Ast.expr -> bool

(** Divergence classification. The structural verdict (node-only ⇒
    [Terminates]; constructor/arithmetic ⇒ [May_diverge]; else
    [Bounded]) is refined by the semiring stability of an [accumulate
    by] clause: stable kinds (bool, max, why) keep the structural
    class, the p-stable min semiring caps at [Bounded], and the
    unstable count semiring forces [May_diverge]. *)
val classify :
  ?accum:Lang.Ast.accum ->
  var:string ->
  seed:Lang.Ast.expr ->
  body:Lang.Ast.expr ->
  unit ->
  divergence

(** Full analysis: {!Lang.Static} findings (re-coded and located),
    lint rules FQ020–FQ023, and per-IFP distributivity blame (FQ030,
    FQ032) and divergence class (FQ040, FQ041 — or FQ043/FQ044 when an
    [accumulate by] semiring drives the verdict). [spans] locates
    diagnostics; without it every [loc] is [None]. *)
val analyze :
  ?stratified:bool ->
  ?spans:Lang.Parser.Spans.t ->
  Lang.Ast.program ->
  t

(** Convert one {!Lang.Static} diagnostic, resolving its node to a
    position through [spans]. *)
val of_static :
  ?spans:Lang.Parser.Spans.t -> Lang.Static.diagnostic -> Diag.t

(** An [FQ001] parse/lex error at a known position. *)
val parse_error_diag : line:int -> col:int -> string -> Diag.t

(** Locate the source construct that compiled to the plan operator
    blocking the algebraic ∪-push ([outcome.blocking]), as an [FQ031]
    diagnostic against the IFP's body. [None] when the push succeeded. *)
val push_block_diag :
  ?spans:Lang.Parser.Spans.t -> ifp_report -> Push.outcome -> Diag.t option

(** [a]'s diagnostics with the first IFP's ∪ push-up outcome folded in:
    when the push is blocked, the {!push_block_diag} [FQ031] is added;
    when it succeeds, the first IFP's [FQ030] is demoted to [Info] with
    the suffix "Delta is still licensed by the algebraic check" —
    Theorem 3.2 makes either check a licence for Delta. Sorted like
    [a.diagnostics]. *)
val with_push :
  ?spans:Lang.Parser.Spans.t -> t -> Push.outcome option -> Diag.t list

(** Incremental-view-maintenance eligibility of a prepared program.

    - [Ivm_full]: single top-level fixed point, node-only, syntactically
      distributive, and both seed and body stay in the {e filter-free
      downward grammar} (child / descendant / descendant-or-self / self
      / attribute steps, union, intersect, sequence, [let], variables,
      [doc("…")] literals). Such results can be maintained under
      insertions {e and} deletions: downward bodies derive only within
      the producer's subtree, so deleting a subtree deletes every result
      it supported and nothing else.
    - [Ivm_insert_only]: as above but with filters, each restricted to
      insert-monotone predicates (downward existence paths, [and]/[or],
      comparisons whose operands are literals or attribute-ended
      downward paths). Insertions are maintainable — a predicate on an
      existing node can only flip on the re-fed ancestor spine — but
      deletions may un-derive results, so they fall back to recompute.
    - [Ivm_ineligible reason]: everything else; the cache entry is
      dropped on any patch to a footprint document. *)
type ivm_class = Ivm_full | Ivm_insert_only | Ivm_ineligible of string

val ivm_eligibility : ?stratified:bool -> Lang.Ast.program -> ivm_class

(** ["full" | "insert-only" | "ineligible"] — the [check] op's [ivm]
    field. *)
val ivm_string : ivm_class -> string

val ivm_reason : ivm_class -> string option

(** Apply {!Lang.Rewrite.distributivity_hint} to every
    [hint_repairable] IFP of the report; returns the rewritten program
    and how many hints were applied. *)
val apply_hints : Lang.Ast.program -> t -> Lang.Ast.program * int
