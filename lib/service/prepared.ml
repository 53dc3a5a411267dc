module Lang = Fixq_lang
module Push = Fixq_algebra.Push
module Analyze = Fixq_analysis.Analyze
module Diag = Fixq_analysis.Diag
module Estimate = Fixq_cost.Estimate

type t = {
  source : string;
  hash : string;
  program : Lang.Ast.program;
  spans : Lang.Parser.Spans.t;
  warnings : string list;
  analysis : Analyze.t;
  push : Push.outcome option;
  ifp_count : int;
  syntactic : bool;
  algebraic : bool option;
  plan : (int * Fixq_algebra.Plan.t) option;
  sql : (Fixq_algebra.Render_sql.rendered, string) result option;
  cost : Estimate.t;
  mode : Fixq.mode;
  stratified : bool;
  generation : int;
  prepare_ms : float;
}

exception Rejected of { message : string; diagnostics : Diag.t list }

let reject message diagnostics = raise (Rejected { message; diagnostics })

let hash_source src = Digest.to_hex (Digest.string src)

let format_diagnostic d = Format.asprintf "%a" Lang.Static.pp_diagnostic d

(* The synopsis-driven cost estimate, shaped by the first site's
   verdicts and compile/render outcomes. *)
let estimate ~registry ~spans ~ifp_count ~plan ~sql ~algebraic ~syntactic
    program =
  Estimate.analyze ~registry ~spans
    ~compiled:(if ifp_count = 0 then None else Some (plan <> None))
    ~sql_renderable:(Option.map Result.is_ok sql)
    ~algebra_delta:(algebraic = Some true)
    ~interp_delta:syntactic program

let run ~static_gate ~store ~stratified ~max_iterations source =
  let t0 = Unix.gettimeofday () in
  let registry = Store.registry store in
  let generation = Store.generation store in
  let program, spans =
    match Lang.Parser.parse_program_spans source with
    | p -> p
    | exception Lang.Parser.Error { line; col; msg } ->
      let message = Printf.sprintf "parse error at %d:%d: %s" line col msg in
      reject message [ Analyze.parse_error_diag ~line ~col msg ]
    | exception Lang.Lexer.Error { pos; msg } ->
      let line, col = Lang.Lexer.line_col_of source pos in
      let message = Printf.sprintf "lex error at %d:%d: %s" line col msg in
      reject message [ Analyze.parse_error_diag ~line ~col msg ]
  in
  let static = Lang.Static.check_program program in
  (match Lang.Static.errors static with
  | [] -> ()
  | _ when not static_gate -> ()
  | errs ->
    reject
      (String.concat "; " (List.map format_diagnostic errs))
      (List.map (Analyze.of_static ~spans) errs));
  let warnings = List.map format_diagnostic static in
  let analysis = Analyze.analyze ~stratified ~spans program in
  let ifp_count = List.length analysis.Analyze.ifps in
  let syntactic =
    match analysis.Analyze.ifps with
    | [] -> false
    | r :: _ -> r.Analyze.syntactic
  in
  (* The one capture of the first IFP site: evaluating the program
     prefix up to it is the expensive part of preparing, so the plan,
     the push-up verdict and the SQL rendering all derive from it. *)
  let plan =
    if ifp_count = 0 then None
    else Fixq.plan_of_first_ifp ~registry ~max_iterations program
  in
  let push =
    Option.map
      (fun (fix_id, p) -> Push.check ~stratified ~fix_id p)
      plan
  in
  let algebraic = Option.map (fun o -> o.Push.distributive) push in
  let sql = Option.map Fixq.sql_of_plan plan in
  let cost =
    estimate ~registry ~spans ~ifp_count ~plan ~sql ~algebraic ~syntactic
      program
  in
  (* One licence for every engine (Theorem 3.2): Delta when either
     check accepts, Naive when both reject. No algebraic verdict (the
     site was not reached or its body does not compile) pins nothing:
     Auto re-decides at the site with the same two checks. *)
  let mode =
    if ifp_count = 0 then Fixq.Naive
    else if ifp_count > 1 then Fixq.Auto
    else if Fixq.delta_by ~syntactic ~algebraic <> None then Fixq.Delta
    else if algebraic = None then Fixq.Auto
    else Fixq.Naive
  in
  { source; hash = hash_source source; program; spans; warnings; analysis;
    push; ifp_count; syntactic; algebraic; plan; sql; cost; mode;
    stratified; generation;
    prepare_ms = (Unix.gettimeofday () -. t0) *. 1000.0 }

let prepare = run ~static_gate:true

let inspect = run ~static_gate:false

(* The parse, the static check and the distributivity verdicts depend
   only on the query text, but the cost estimate reads the document
   synopses — so a cached entry served after a load-doc/patch-doc must
   re-run just the abstract interpreter, or admission and engine
   choice would act on the document as it was at prepare time. *)
let refresh ~store t =
  let generation = Store.generation store in
  if t.generation = generation then t
  else
    let cost =
      estimate ~registry:(Store.registry store) ~spans:t.spans
        ~ifp_count:t.ifp_count ~plan:t.plan ~sql:t.sql
        ~algebraic:t.algebraic ~syntactic:t.syntactic t.program
    in
    { t with cost; generation }

let delta_by t = Fixq.delta_by ~syntactic:t.syntactic ~algebraic:t.algebraic

(* Diagnostics with the plan verdict folded in (the FQ031 push-block
   mapping, FQ030 demoted when the push-up licenses Delta), which
   cannot be part of [Analyze.analyze], plus the cost analyzer's
   FQ050–FQ054 findings. *)
let diagnostics t =
  List.stable_sort Diag.compare
    (Analyze.with_push ~spans:t.spans t.analysis t.push
    @ t.cost.Estimate.diagnostics)

let divergence t =
  match t.analysis.Analyze.ifps with
  | [] -> None
  | r :: _ -> Some r.Analyze.divergence

let semiring t =
  match t.analysis.Analyze.ifps with
  | [] -> None
  | r :: _ -> r.Analyze.semiring

let chosen_engine t =
  match t.cost.Estimate.chosen with
  | "algebra" -> `Algebra
  | "sql" -> `Sql
  | _ -> `Interp
