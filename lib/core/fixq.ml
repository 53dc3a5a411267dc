module Xdm = Fixq_xdm
module Lang = Fixq_lang
module Algebra_ir = Fixq_algebra
module Store = Fixq_store

module Item = Xdm.Item
module Eval = Lang.Eval
module Stats = Lang.Stats
module Compile = Algebra_ir.Compile
module Plan = Algebra_ir.Plan
module Plan_eval = Algebra_ir.Plan_eval
module Push = Algebra_ir.Push
module Optimize = Algebra_ir.Optimize
module Render_sql = Algebra_ir.Render_sql
module Sqlrec = Fixq_sqlrec.Sqlrec

type mode = Naive | Delta | Auto

type engine = Interpreter of mode | Algebra of mode | Sql of mode

type report = {
  result : Item.seq;
  engine : engine;
  used_delta : bool option;
  nodes_fed : int;
  depth : int;
  wall_ms : float;
  fallbacks : string list;
  semiring : string option;
  annotations : (string * string) list;
}

exception Error of string

(* Raised (from the stats iteration hook) when a per-request wall-clock
   deadline passes mid-fixpoint; converted to [Error] in run_program. *)
exception Deadline_exceeded

let strategy_of_mode = function
  | Naive -> Eval.Naive
  | Delta -> Eval.Delta
  | Auto -> Eval.Auto

let now_ms () = Unix.gettimeofday () *. 1000.0

(* The hybrid algebraic engine: the interpreter drives the query, every
   IFP site is compiled once (plans are cached per body expression and
   carry rebindable leaves for the scope variables) and executed as a
   µ/µ∆ plan on a shared plan evaluator, so loop-invariant relations
   persist across the many fixpoints of a query like the bidder
   network. *)
module Expr_tbl = Hashtbl.Make (struct
  type t = Lang.Ast.expr

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type compiled_site = {
  cs : Compile.compiled;  (** optimized plan *)
  used_refs : (string * int) list;
      (** binding refs that actually occur in the plan *)
  mutable session : (Xdm.Item.seq list * Plan_eval.session) option;
      (** last used-binding values (physical) and the session memo *)
}

(* Per-body verdicts shared by every engine of one run: the Table-1
   compilation of the body and its Delta licence. Theorem 3.2 makes
   either check sufficient, so the licence is Figure 5 ∨ ∪ push-up —
   the same disjunction the prepared-query layer pins. Entries are keyed
   by body expression and computed on first sight of the site, never
   per evaluation: the bidder network's per-person fixpoints share one
   entry. *)
type site_verdict = {
  compiled : (compiled_site, string) result;
  licensed : bool Lazy.t;  (** forced only by [Auto] decisions *)
}

type verdicts = {
  functions : (string, Lang.Ast.fundef) Hashtbl.t;
  stratified : bool;
  table : site_verdict Expr_tbl.t;
}

let create_verdicts ~stratified ev =
  { functions = Eval.functions ev; stratified; table = Expr_tbl.create 8 }

let site_verdict v (site : Eval.ifp_site) =
  match Expr_tbl.find_opt v.table site.Eval.ifp_body with
  | Some sv -> sv
  | None ->
    let names =
      List.map fst site.Eval.ifp_bindings
      @ if site.Eval.ifp_context <> None then [ "." ] else []
    in
    let compiled : (Compile.compiled, string) result =
      match
        Compile.body ~functions:v.functions ~recursion_var:site.Eval.ifp_var
          ~bindings:names site.Eval.ifp_body
      with
      | exception Compile.Unsupported reason -> Error reason
      | cs -> Ok cs
    in
    let licensed =
      lazy
        (Lang.Distributivity.check ~functions:v.functions
           ~stratified:v.stratified site.Eval.ifp_var site.Eval.ifp_body
        ||
        match compiled with
        | Ok cs ->
          (Push.check ~stratified:v.stratified ~fix_id:cs.Compile.fix_id
             cs.Compile.body)
            .Push.distributive
        | Error _ -> false)
    in
    let compiled =
      Result.map
        (fun cs ->
          let cs = { cs with Compile.body = Optimize.optimize cs.Compile.body } in
          let used_refs =
            List.filter
              (fun (_, id) -> Plan.contains_fix_ref id cs.Compile.body)
              cs.Compile.binding_refs
          in
          { cs; used_refs; session = None })
        compiled
    in
    let sv = { compiled; licensed } in
    Expr_tbl.replace v.table site.Eval.ifp_body sv;
    sv

let use_delta mode sv =
  match mode with
  | Naive -> false
  | Delta -> true
  | Auto -> Lazy.force sv.licensed

(* Record each declined body's reason once per run, however often its
   site is evaluated. *)
let decliner fallbacks =
  let seen : unit Expr_tbl.t = Expr_tbl.create 8 in
  fun reason (site : Eval.ifp_site) ->
    if not (Expr_tbl.mem seen site.Eval.ifp_body) then begin
      fallbacks := reason :: !fallbacks;
      Expr_tbl.replace seen site.Eval.ifp_body ()
    end;
    None

let annotated_reason =
  "accumulate by: annotated fixpoints run on the interpreter's semiring \
   kernel"

(* Definition 2.1 restricts IFP to node()*; handlers decline atom seeds
   so every engine raises the interpreter's dynamic error. *)
let atom_seed (site : Eval.ifp_site) =
  List.exists
    (function Xdm.Item.A _ -> true | Xdm.Item.N _ -> false)
    site.Eval.ifp_seed

let install_algebra_handler ~registry ~max_iterations ~verdicts ~mode
    ~fallbacks ~used_delta ev =
  let pe =
    Plan_eval.create ~registry ~max_iterations ~stats:(Eval.stats ev) ()
  in
  let decline = decliner fallbacks in
  Eval.set_ifp_handler ev
    (Some
       (fun (site : Eval.ifp_site) ->
         (* Annotated sites: Table-1 relations carry node identities,
            not semiring annotations — both engines run the
            interpreter's semiring kernel, keeping results equal. *)
         if site.Eval.ifp_accum <> None then decline annotated_reason site
         else if atom_seed site then None
         else
           let sv = site_verdict verdicts site in
           match sv.compiled with
           | Error reason -> decline reason site
           | Ok c ->
             let use_delta = use_delta mode sv in
             used_delta := Some use_delta;
             let fix =
               { Plan.fix_id = c.cs.Compile.fix_id;
                 seed = Compile.seed_table site.Eval.ifp_seed;
                 body = c.cs.Compile.body }
             in
             let plan = if use_delta then Plan.Mu_delta fix else Plan.Mu fix in
             let value_of (name, _) =
               if String.equal name "." then
                 match site.Eval.ifp_context with
                 | Some it -> [ it ]
                 | None -> []
               else
                 Option.value ~default:[]
                   (List.assoc_opt name site.Eval.ifp_bindings)
             in
             let values = List.map value_of c.used_refs in
             let bindings =
               List.map2
                 (fun (_, id) items -> (id, Compile.items_relation items))
                 c.used_refs values
             in
             let session =
               match c.session with
               | Some (prev, s)
                 when List.length prev = List.length values
                      && List.for_all2 ( == ) prev values ->
                 s
               | _ ->
                 let s = Plan_eval.new_session () in
                 c.session <- Some (values, s);
                 s
             in
             let rel = Plan_eval.run_with pe ~session bindings plan in
             Some (Compile.result_items rel)))

(* The SQL:1999 engine: the interpreter drives the query; every IFP
   site whose optimized plan renders to a linear WITH RECURSIVE query
   (see {!Render_sql}) runs on the {!Fixq_sqlrec} evaluator over
   materialized document relations. Non-renderable sites fall back to
   the interpreter — results stay byte-identical either way, the
   rendering only changes which fixpoint loop produces them. *)
type sql_site = {
  sql_cs : Compile.compiled;
  mutable sql_prep : Render_sql.prepared option;
      (** materialization, reusable while the seed's document root is
          unchanged (e.g. the per-course fixpoints of Rule 5) *)
}

let install_sql_handler ~verdicts ~mode ~fallbacks ~used_delta ev =
  (* [None]: the body has no rendering — a property of the body, so
     permanent for the site *)
  let cache : sql_site option Expr_tbl.t = Expr_tbl.create 8 in
  let stats = Eval.stats ev in
  let decline = decliner fallbacks in
  Eval.set_ifp_handler ev
    (Some
       (fun (site : Eval.ifp_site) ->
         if site.Eval.ifp_accum <> None then decline annotated_reason site
         else if atom_seed site then None
         else
           let sv = site_verdict verdicts site in
           let compiled =
             match Expr_tbl.find_opt cache site.Eval.ifp_body with
             | Some c -> c
             | None ->
               let c =
                 match sv.compiled with
                 | Error reason -> decline ("no SQL rendering: " ^ reason) site
                 | Ok c -> (
                   match
                     Render_sql.render ~fix_id:c.cs.Compile.fix_id
                       c.cs.Compile.body
                   with
                   | Error reason ->
                     decline ("no SQL rendering: " ^ reason) site
                   | Ok _ -> Some { sql_cs = c.cs; sql_prep = None })
               in
               Expr_tbl.replace cache site.Eval.ifp_body c;
               c
           in
           match compiled with
           | None -> None
           | Some c -> (
             let prep =
               match (c.sql_prep, site.Eval.ifp_seed) with
               | (Some p, Xdm.Item.N n :: _)
                 when Xdm.Node.equal (Xdm.Node.root n) p.Render_sql.root ->
                 Ok p
               | _ ->
                 Render_sql.prepare ~seed:site.Eval.ifp_seed
                   ~fix_id:c.sql_cs.Compile.fix_id c.sql_cs.Compile.body
             in
             match prep with
             | Error reason ->
               (* Seed-dependent: the same site may get a renderable
                  seed next time, so this is not a permanent failure. *)
               fallbacks := ("no SQL rendering: " ^ reason) :: !fallbacks;
               None
             | Ok p ->
               c.sql_prep <- Some p;
               let use_delta = use_delta mode sv in
               used_delta := Some use_delta;
               let seed_rows =
                 List.filter_map
                   (function
                     | Xdm.Item.N n -> Some (1, n.Xdm.Node.id)
                     | Xdm.Item.A _ -> None)
                   site.Eval.ifp_seed
               in
               let db = Render_sql.database p ~seed_rows in
               Stats.start_run stats;
               let r =
                 Sqlrec.run
                   ~on_round:(fun ~fed ~produced ~total ->
                     Stats.record_iteration stats ~fed ~produced
                       ~result_size:total)
                   ~algorithm:(if use_delta then Sqlrec.Delta else Sqlrec.Naive)
                   db p.Render_sql.query
               in
               let rows =
                 List.filter_map
                   (function
                     | [ Fixq_sqlrec.Sqldb.I it; Fixq_sqlrec.Sqldb.I id ] ->
                       Option.map
                         (fun n -> [| Algebra_ir.Value.Int it; Algebra_ir.Value.Nd n |])
                         (Hashtbl.find_opt p.Render_sql.tables.Render_sql.decode id)
                     | _ -> None)
                   r.Sqlrec.result.Fixq_sqlrec.Sqldb.rows
               in
               Some
                 (Compile.result_items
                    (Algebra_ir.Relation.create [ "iter"; "item" ] rows)))))

let run_program ?(registry = Xdm.Doc_registry.default)
    ?(max_iterations = 1_000_000) ?(stratified = false) ?deadline
    ?round_hook ?max_call_depth ~engine p =
  let fallbacks = ref [] in
  let used_delta = ref None in
  let mode = match engine with Interpreter m | Algebra m | Sql m -> m in
  (* Interpreter strategy doubles as the fallback policy of the plan
     engines (and runs any IFP they decline). *)
  let ev =
    Eval.create ~registry ~max_iterations ~stratified ?max_call_depth
      ~strategy:(strategy_of_mode mode) ()
  in
  let verdicts = create_verdicts ~stratified ev in
  if mode = Auto then
    Eval.set_delta_licence ev
      (Some (fun site -> Lazy.force (site_verdict verdicts site).licensed));
  (match engine with
  | Interpreter _ -> ()
  | Algebra _ ->
    install_algebra_handler ~registry ~max_iterations ~verdicts ~mode
      ~fallbacks ~used_delta ev
  | Sql _ -> install_sql_handler ~verdicts ~mode ~fallbacks ~used_delta ev);
  (match (deadline, round_hook) with
  | None, None -> ()
  | _ ->
    (* Cooperative: checked once per fixpoint round, on both engines
       (the plan evaluator shares this Stats.t). Straight-line queries
       without an IFP are not interrupted. *)
    Stats.set_iteration_hook (Eval.stats ev)
      (Some
         (fun () ->
           (match round_hook with None -> () | Some h -> h ());
           match deadline with
           | Some d when Unix.gettimeofday () > d -> raise Deadline_exceeded
           | _ -> ())));
  let t0 = now_ms () in
  let result =
    try Eval.run_program ev p with
    | Eval.Error m | Lang.Builtins.Error m | Plan_eval.Error m
    | Sqlrec.Error m ->
      raise (Error m)
    | Lang.Fixpoint.Diverged n ->
      raise (Error (Printf.sprintf "IFP diverged after %d iterations" n))
    | Deadline_exceeded -> raise (Error "deadline exceeded during IFP evaluation")
    | Xdm.Atom.Type_error m -> raise (Error ("type error: " ^ m))
  in
  let wall_ms = now_ms () -. t0 in
  let stats = Eval.stats ev in
  let used_delta =
    match engine with
    | Interpreter _ -> Eval.last_ifp_used_delta ev
    | Algebra _ | Sql _ -> (
      match !used_delta with
      | Some d -> Some d
      | None -> Eval.last_ifp_used_delta ev)
  in
  let semiring, annotations =
    match Eval.last_annotations ev with
    | None -> (None, [])
    | Some (kind, entries) ->
      ( Some (Fixq_semiring.Semiring.kind_to_string kind),
        List.map
          (fun (n, ann) ->
            ( Xdm.Serializer.seq_to_string [ Item.N n ],
              Fixq_semiring.Semiring.ann_to_string ann ))
          entries )
  in
  { result; engine; used_delta; nodes_fed = Stats.nodes_fed stats;
    depth = Stats.depth stats; wall_ms; fallbacks = List.rev !fallbacks;
    semiring; annotations }

let parse src =
  try Lang.Parser.parse_program src with
  | Lang.Parser.Error { line; col; msg } ->
    raise (Error (Printf.sprintf "parse error at %d:%d: %s" line col msg))
  | Lang.Lexer.Error { pos; msg } ->
    let line, col = Lang.Lexer.line_col_of src pos in
    raise (Error (Printf.sprintf "lex error at %d:%d: %s" line col msg))

let run ?registry ?max_iterations ?stratified ?deadline ?round_hook
    ?max_call_depth ~engine src =
  run_program ?registry ?max_iterations ?stratified ?deadline ?round_hook
    ?max_call_depth ~engine (parse src)

(* Capture the compiled plan of the first IFP encountered dynamically:
   install a capturing handler, then run the program on the interpreter.
   The handler fires at site entry — before any fixpoint iteration — so
   once the first site has been seen there is nothing left to learn and
   we abort the run.  Without the abort, preparing a divergent query
   would spin through the whole iteration budget just to capture a plan
   that was already in hand. *)
exception Plan_captured

let plan_of_first_ifp ?(registry = Xdm.Doc_registry.default)
    ?(max_iterations = 1_000_000) p =
  let captured = ref None in
  let ev = Eval.create ~registry ~max_iterations ~strategy:Eval.Naive () in
  Eval.set_ifp_handler ev
    (Some
       (fun (site : Eval.ifp_site) ->
         (match
            Compile.body ~functions:(Eval.functions ev)
              ~recursion_var:site.Eval.ifp_var
              ~bindings:
                (List.map fst site.Eval.ifp_bindings
                @ if site.Eval.ifp_context <> None then [ "." ] else [])
              site.Eval.ifp_body
          with
         | exception Compile.Unsupported _ -> ()
         | { Compile.fix_id; body; _ } -> captured := Some (fix_id, body));
         raise Plan_captured));
  (try ignore (Eval.run_program ev p) with _ -> ());
  !captured

(* The SQL:1999 rendering of a captured IFP body (optimized) — what the
   Sql engine would run at that site. *)
let sql_of_plan (fix_id, plan) =
  Render_sql.render ~fix_id (Optimize.optimize plan)

let sql_of_first_ifp ?registry ?max_iterations p =
  Option.map sql_of_plan (plan_of_first_ifp ?registry ?max_iterations p)

(* One canonical child enumeration for whole-program expression walks
   (first-IFP lookup, IFP counting for the prepared-query layer, …). *)
let subexprs (e : Lang.Ast.expr) : Lang.Ast.expr list =
  match (e : Lang.Ast.expr) with
  | Lang.Ast.Sequence (a, b)
          | Lang.Ast.Union (a, b)
          | Lang.Ast.Except (a, b)
          | Lang.Ast.Intersect (a, b)
          | Lang.Ast.Path (a, b)
          | Lang.Ast.Filter (a, b)
          | Lang.Ast.Arith (_, a, b)
          | Lang.Ast.Gen_cmp (_, a, b)
          | Lang.Ast.Val_cmp (_, a, b)
          | Lang.Ast.Node_is (a, b)
          | Lang.Ast.Node_before (a, b)
          | Lang.Ast.Node_after (a, b)
          | Lang.Ast.And (a, b)
          | Lang.Ast.Or (a, b)
          | Lang.Ast.Range (a, b) ->
            [ a; b ]
          | Lang.Ast.Neg a
          | Lang.Ast.Text_constr a
          | Lang.Ast.Attr_constr (_, a)
          | Lang.Ast.Comment_constr a
          | Lang.Ast.Doc_constr a
          | Lang.Ast.Comp_elem (_, a)
          | Lang.Ast.Instance_of (a, _)
          | Lang.Ast.Cast (a, _, _)
          | Lang.Ast.Castable (a, _, _) ->
            [ a ]
          | Lang.Ast.For { source; body; _ } -> [ source; body ]
          | Lang.Ast.Sort { source; key; body; _ } -> [ source; key; body ]
          | Lang.Ast.Let { value; body; _ } -> [ value; body ]
          | Lang.Ast.If (a, b, c) -> [ a; b; c ]
          | Lang.Ast.Quantified (_, _, a, b) -> [ a; b ]
          | Lang.Ast.Call (_, args) -> args
          | Lang.Ast.Elem_constr (_, attrs, content) ->
            List.concat_map
              (fun (_, pieces) ->
                List.filter_map
                  (function
                    | Lang.Ast.A_lit _ -> None
                    | Lang.Ast.A_expr e -> Some e)
                  pieces)
              attrs
            @ content
          | Lang.Ast.Typeswitch (s, cases, _, d) ->
            (s :: List.map (fun (_, _, b) -> b) cases) @ [ d ]
  | Lang.Ast.Ifp { seed; body; accum; _ } -> (
    seed :: body
    ::
    (match accum with
    | Some { Lang.Ast.weight = Some w; _ } -> [ w ]
    | _ -> []))
  | Lang.Ast.Literal _ | Lang.Ast.Empty_seq | Lang.Ast.Var _
  | Lang.Ast.Context_item | Lang.Ast.Root | Lang.Ast.Axis_step _ ->
    []

let iter_exprs f (p : Lang.Ast.program) =
  let rec go e =
    f e;
    List.iter go (subexprs e)
  in
  go p.Lang.Ast.main;
  List.iter (fun fd -> go fd.Lang.Ast.body) p.Lang.Ast.functions

(* Literal doc("uri") references anywhere in the program — main
   expression, function bodies and global variable declarations. The
   cluster router keys document-sharded placement on these. *)
let doc_uris (p : Lang.Ast.program) =
  let seen = Hashtbl.create 4 in
  let uris = ref [] in
  let visit e =
    match (e : Lang.Ast.expr) with
    | Lang.Ast.Call ("doc", [ Lang.Ast.Literal (Xdm.Atom.Str u) ])
      when not (Hashtbl.mem seen u) ->
      Hashtbl.replace seen u ();
      uris := u :: !uris
    | _ -> ()
  in
  let rec go e =
    visit e;
    List.iter go (subexprs e)
  in
  go p.Lang.Ast.main;
  List.iter (fun fd -> go fd.Lang.Ast.body) p.Lang.Ast.functions;
  List.iter (fun (_, e) -> go e) p.Lang.Ast.variables;
  List.rev !uris

let first_ifp (p : Lang.Ast.program) =
  let found = ref None in
  iter_exprs
    (fun e ->
      match (e : Lang.Ast.expr) with
      | Lang.Ast.Ifp { var; body; _ } when !found = None ->
        found := Some (var, body)
      | _ -> ())
    p;
  !found

let count_ifps (p : Lang.Ast.program) =
  let n = ref 0 in
  iter_exprs
    (function Lang.Ast.Ifp _ -> incr n | _ -> ())
    p;
  !n

let program_functions (p : Lang.Ast.program) =
  let functions = Hashtbl.create 16 in
  List.iter
    (fun fd -> Hashtbl.replace functions fd.Lang.Ast.fname fd)
    p.Lang.Ast.functions;
  functions

let distributivity_verdicts ?registry ?(stratified = false) p =
  match first_ifp p with
  | None -> None
  | Some (var, body) ->
    let functions = program_functions p in
    let syntactic =
      Lang.Distributivity.check ~functions ~stratified var body
    in
    let algebraic =
      match plan_of_first_ifp ?registry p with
      | None -> None
      | Some (fix_id, plan) ->
        Some (Push.check ~stratified ~fix_id plan).Push.distributive
    in
    Some (syntactic, algebraic)

(* Figure 5 is named when both accept: it is the check every engine
   consults first. *)
let delta_by ~syntactic ~algebraic =
  if syntactic then Some "syntactic"
  else if algebraic = Some true then Some "algebraic"
  else None
