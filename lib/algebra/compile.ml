module Item = Fixq_xdm.Item
module Atom = Fixq_xdm.Atom
module Axis = Fixq_xdm.Axis
module Ast = Fixq_lang.Ast
module Distributivity = Fixq_lang.Distributivity
module Smap = Map.Make (String)

exception Unsupported of string

let unsupported fmt = Format.kasprintf (fun s -> raise (Unsupported s)) fmt

type compiled = {
  fix_id : int;
  body : Plan.t;
  binding_refs : (string * int) list;
}

type cenv = {
  loop : Plan.t;  (** schema [iter] *)
  vars : Plan.t Smap.t;  (** each schema [iter; item] *)
  functions : (string, Ast.fundef) Hashtbl.t;
  inlining : string list;  (** functions currently being inlined *)
  hoist : hoist_frame option;
      (** set inside an iteration: loop-invariant subexpressions compile
          against the outer scope and are lifted once at their root *)
  locals : string list;
      (** variables introduced since the last iteration boundary
          (the iterated binding, inner lets, inlined parameters) *)
}

and hoist_frame = { outer : cenv; frame_map : Plan.t }

(* Does the expression read the dynamic context of the CURRENT scope
   ('.', a leading '/', a relative step, or a context-dependent
   built-in)? Path right-hand sides and filter predicates install their
   own context and do not count. *)
let rec uses_context (e : Ast.expr) =
  match e with
  | Ast.Context_item | Ast.Root | Ast.Axis_step _ -> true
  | Ast.Call (("position" | "last"), _) -> true
  | Ast.Call (("string" | "string-length" | "normalize-space" | "number"
              | "name" | "local-name" | "root"), []) ->
    true
  | Ast.Call ("id", [ arg ]) -> true || uses_context arg
  | Ast.Path (a, _) -> uses_context a
  | Ast.Filter (a, _) -> uses_context a
  | Ast.Literal _ | Ast.Empty_seq | Ast.Var _ -> false
  | Ast.Sequence (a, b) | Ast.Union (a, b) | Ast.Except (a, b)
  | Ast.Intersect (a, b) | Ast.Arith (_, a, b) | Ast.Gen_cmp (_, a, b)
  | Ast.Val_cmp (_, a, b) | Ast.Node_is (a, b) | Ast.Node_before (a, b)
  | Ast.Node_after (a, b) | Ast.And (a, b) | Ast.Or (a, b)
  | Ast.Range (a, b) ->
    uses_context a || uses_context b
  | Ast.Neg a | Ast.Text_constr a | Ast.Attr_constr (_, a)
  | Ast.Comment_constr a | Ast.Doc_constr a | Ast.Comp_elem (_, a)
  | Ast.Instance_of (a, _) | Ast.Cast (a, _, _) | Ast.Castable (a, _, _) ->
    uses_context a
  | Ast.For { source; body; _ } -> uses_context source || uses_context body
  | Ast.Sort { source; key; body; _ } ->
    uses_context source || uses_context key || uses_context body
  | Ast.Let { value; body; _ } -> uses_context value || uses_context body
  | Ast.If (a, b, c) -> uses_context a || uses_context b || uses_context c
  | Ast.Quantified (_, _, a, b) -> uses_context a || uses_context b
  | Ast.Call (_, args) -> List.exists uses_context args
  | Ast.Elem_constr (_, attrs, content) ->
    List.exists
      (fun (_, pieces) ->
        List.exists
          (function Ast.A_lit _ -> false | Ast.A_expr e -> uses_context e)
          pieces)
      attrs
    || List.exists uses_context content
  | Ast.Typeswitch (a, cases, _, d) ->
    uses_context a
    || List.exists (fun (_, _, b) -> uses_context b) cases
    || uses_context d
  | Ast.Ifp { seed; body; _ } -> uses_context seed || uses_context body

let hoistable env e =
  match env.hoist with
  | None -> false
  | Some _ ->
    (not (List.exists (fun v -> Ast.is_free v e) env.locals))
    && (not (List.mem "." env.locals) || not (uses_context e))

(* A predicated step: [step[p1][p2]…] — the shapes whose filters can be
   pulled out of a path RHS (see the Path/Filter rewrite below). *)
let rec step_filter_chain = function
  | Ast.Axis_step _ -> true
  | Ast.Filter (b, _) -> step_filter_chain b
  | _ -> false

let ii = [ "iter"; "item" ]
let keep_ii = [ ("iter", "iter"); ("item", "item") ]

(* loop × single-value table *)
let const_table env v =
  Plan.Project
    (keep_ii, Plan.Cross (env.loop, Plan.Lit_table ([ "item" ], [ [| v |] ])))

let atomize p =
  Plan.Project
    ( [ ("iter", "iter"); ("item", "d") ],
      Plan.Fun (Plan.P_data, { Plan.fun_result = "d"; fun_args = [ "item" ] }, p)
    )

(* Per-iter boolean table from a set of "true" iters: loop gets false
   everywhere except the given iters. *)
let bool_table env true_iters =
  let truthy =
    Plan.Project
      ( [ ("iter", "iter"); ("item", "t") ],
        Plan.Fun
          (Plan.P_const (Value.Bool true), { Plan.fun_result = "t"; fun_args = [] },
           true_iters) )
  in
  let falsy =
    Plan.Project
      ( [ ("iter", "iter"); ("item", "f") ],
        Plan.Fun
          (Plan.P_const (Value.Bool false), { Plan.fun_result = "f"; fun_args = [] },
           Plan.Difference (env.loop, true_iters)) )
  in
  Plan.Union (truthy, falsy)

(* Iters (schema [iter]) in which [p]'s value has a truthy row. *)
let ebv_true_iters p =
  Plan.Distinct
    (Plan.Project
       ( [ ("iter", "iter") ],
         Plan.Select
           ( "b",
             Plan.Fun
               (Plan.P_ebv, { Plan.fun_result = "b"; fun_args = [ "item" ] }, p)
           ) ))

(* Per-iter EBV as a boolean [iter|item] table. *)
let ebv_table env p = bool_table env (ebv_true_iters p)

(* Restrict an [iter|item] table to a sub-loop (schema [iter]). *)
let restrict_to subloop p =
  Plan.Project
    (keep_ii, Plan.Join ({ Plan.equi = [ ("iter", "iter") ]; theta = [] }, p, subloop))

(* The loop-lifting "map" machinery shared by for, filter and general
   path right-hand sides: iterate [source] item-wise.

   map       : iter|item|inner   (inner = fresh per source row)
   loop'     : iter := inner
   item bind : the per-row singleton ($v or '.')
   lifted var: re-keyed to inner through map *)
let make_map source =
  let map = Plan.Tag ("inner", Plan.Distinct source) in
  let inner_loop = Plan.Project ([ ("iter", "inner") ], map) in
  let bind = Plan.Project ([ ("iter", "inner"); ("item", "item") ], map) in
  (map, inner_loop, bind)

let lift_var map v =
  (* v : iter|item ; map : iter|item|inner → inner-keyed iter|item
     (the join primes map's clashing columns, "inner" survives) *)
  Plan.Project
    ( [ ("iter", "inner"); ("item", "item") ],
      Plan.Join ({ Plan.equi = [ ("iter", "iter") ]; theta = [] }, v, map) )

let unmap map result =
  (* result : inner-keyed iter|item ; back to outer iters *)
  Plan.Distinct
    (Plan.Project
       ( [ ("iter", "iter'"); ("item", "item") ],
         Plan.Join
           ({ Plan.equi = [ ("iter", "inner") ]; theta = [] }, result, map) ))

let cmp_of : Ast.cmp -> Plan.cmp = function
  | Ast.Eq -> Plan.Ceq
  | Ast.Ne -> Plan.Cne
  | Ast.Lt -> Plan.Clt
  | Ast.Le -> Plan.Cle
  | Ast.Gt -> Plan.Cgt
  | Ast.Ge -> Plan.Cge

let rec comp env (e : Ast.expr) : Plan.t =
  match env.hoist with
  | Some { outer; frame_map }
    when hoistable env e
         && (match e with Ast.Var _ | Ast.Literal _ | Ast.Empty_seq -> false | _ -> true) ->
    (* Loop-invariant: compile once against the outer scope, lift the
       finished value into this iteration. Trivial leaves are excluded
       (Var lookups already resolve through lifting; literals are
       constant-per-iter anyway). *)
    lift_var frame_map (comp outer e)
  | _ -> comp_here env e

and comp_here env (e : Ast.expr) : Plan.t =
  match e with
  | Ast.Literal a -> const_table env (Value.of_atom a)
  | Ast.Empty_seq -> Plan.Lit_table (ii, [])
  | Ast.Var v -> (
    match Smap.find_opt v env.vars with
    | Some p -> p
    | None -> (
      match env.hoist with
      | Some { outer; frame_map } -> lift_var frame_map (comp outer (Ast.Var v))
      | None -> unsupported "unbound variable $%s in compiled body" v))
  | Ast.Context_item -> (
    match Smap.find_opt "." env.vars with
    | Some p -> p
    | None -> (
      match env.hoist with
      | Some { outer; frame_map }
        when not (List.mem "." env.locals) ->
        lift_var frame_map (comp outer Ast.Context_item)
      | _ -> unsupported "no context item in compiled body"))
  | Ast.Root ->
    let ctx = comp env Ast.Context_item in
    Plan.Distinct
      (Plan.Project
         ( [ ("iter", "iter"); ("item", "r") ],
           Plan.Fun
             (Plan.P_root, { Plan.fun_result = "r"; fun_args = [ "item" ] }, ctx)
         ))
  | Ast.Sequence (a, b) -> Plan.Union (comp env a, comp env b)
  | Ast.Union (a, b) -> Plan.Distinct (Plan.Union (comp env a, comp env b))
  | Ast.Except (a, b) ->
    Plan.Difference (Plan.Distinct (comp env a), Plan.Distinct (comp env b))
  | Ast.Intersect (a, b) ->
    let qa = Plan.Distinct (comp env a) and qb = Plan.Distinct (comp env b) in
    Plan.Distinct
      (Plan.Project
         ( keep_ii,
           Plan.Join
             ( { Plan.equi = [ ("iter", "iter"); ("item", "item") ]; theta = [] },
               qa, qb ) ))
  | Ast.Path (a, Ast.Axis_step { axis; test }) ->
    Plan.Template
      ( "step",
        Plan.Distinct (Plan.Step (axis, test, "item", Plan.Distinct (comp env a)))
      )
  | Ast.Path (a, Ast.Filter (b, p))
    when step_filter_chain b
         && (not (Distributivity.mentions_position p))
         && Distributivity.surely_non_numeric p ->
    (* a/step[p] ≡ (a/step)[p] for non-positional predicates (both
       denote { n ∈ step(a) : p(n) } — set-oriented mode already rejects
       position()/last() and numeric predicates). The left form maps b
       over every item of [a] (an |a| × loop blow-up before the step
       narrows anything); the right form keeps [a/step] a closed
       subexpression, so inside an iteration the hoist frame lifts it
       once instead of re-stepping the document every round. *)
    comp env (Ast.Filter (Ast.Path (a, b), p))
  | Ast.Path (a, b) -> compile_iteration env ~source:(comp env a) ~bind:"." b
  | Ast.Axis_step { axis; test } ->
    let ctx = comp env Ast.Context_item in
    Plan.Template
      ("step", Plan.Distinct (Plan.Step (axis, test, "item", Plan.Distinct ctx)))
  | Ast.Filter (Ast.Axis_step { axis; _ }, Ast.Literal (Atom.Int _))
    when Axis.is_reverse axis ->
    (* A predicate on a reverse-axis step counts nearest-first, which
       ̺ over the item column (document order) cannot number. *)
    unsupported "positional predicate on a reverse axis step"
  | Ast.Filter (a, Ast.Literal (Atom.Int k)) ->
    (* Positional predicate [k]: node sequences are in document order,
       so ̺ ordered by the item column per iteration recovers the
       position (the one place set-oriented compilation needs ̺). *)
    let numbered =
      Plan.Row_num
        ( { Plan.num_result = "rank"; num_order = [ "item" ];
            num_partition = Some "iter" },
          Plan.Distinct (comp env a) )
    in
    Plan.Project
      ( keep_ii,
        Plan.Select
          ( "hit",
            Plan.Fun
              ( Plan.P_cmp Plan.Ceq,
                { Plan.fun_result = "hit"; fun_args = [ "rank"; "k" ] },
                Plan.Fun
                  ( Plan.P_const (Value.Int k),
                    { Plan.fun_result = "k"; fun_args = [] },
                    numbered ) ) ) )
  | Ast.Filter (a, p) ->
    if Distributivity.mentions_position p then
      unsupported "position()/last() in a predicate (set-oriented mode)";
    if not (Distributivity.surely_non_numeric p) then
      unsupported "possibly positional (numeric) predicate";
    let q = comp env a in
    let (map, inner_loop, bind) = make_map q in
    let env' = iteration_env env map inner_loop bind in
    let kept = true_iters_of env' p in
    let result =
      Plan.Distinct
        (Plan.Project
           ( keep_ii,
             Plan.Join
               ({ Plan.equi = [ ("inner", "iter") ]; theta = [] }, map, kept)
           ))
    in
    Plan.Iterate
      { Plan.it_name = "filter"; it_source = q; it_map = map;
        it_result = result }
  | Ast.For { var; pos; source; body } ->
    if pos <> None then
      unsupported "positional for-variable (set-oriented mode)";
    compile_iteration env ~source:(comp env source) ~bind:var body
  | Ast.Let { var; value; body } ->
    let qv = comp env value in
    comp
      { env with vars = Smap.add var qv env.vars;
        locals = var :: env.locals }
      body
  | Ast.If (c, th, Ast.Empty_seq) ->
    (* The [where]-clause shape. Compiling straight to a restriction of
       the then-branch (a semijoin) avoids the boolean table and its
       loop-difference — this is what keeps the Section 4.1 variant (a
       general comparison inside [where]) algebraically distributive.
       The restriction applies to the branch RESULT: leaf values may
       arrive through hoist frames that bypass sub-loop narrowing. *)
    let true_iters = true_iters_of env c in
    restrict_to true_iters (comp { env with loop = true_iters } th)
  | Ast.If (c, th, el) ->
    let true_iters = true_iters_of env c in
    let false_iters = Plan.Difference (env.loop, true_iters) in
    let under subloop e =
      restrict_to subloop (comp { env with loop = subloop } e)
    in
    Plan.Union (under true_iters th, under false_iters el)
  | Ast.Quantified (q, v, source, pred) ->
    let qs = comp env source in
    let (map, inner_loop, bind) = make_map qs in
    let env' = iteration_env ~bind_var:v env map inner_loop bind in
    let pred_true = ebv_true_iters (comp env' pred) in
    let outer_with_true =
      Plan.Distinct
        (Plan.Project
           ( [ ("iter", "iter") ],
             Plan.Join
               ({ Plan.equi = [ ("inner", "iter") ]; theta = [] }, map, pred_true)
           ))
    in
    (match q with
    | Ast.Some_ -> bool_table env outer_with_true
    | Ast.Every ->
      (* every ≡ no witness where pred is false *)
      let pred_false =
        Plan.Difference (Plan.Project ([ ("iter", "inner") ], map), pred_true)
      in
      let outer_with_false =
        Plan.Distinct
          (Plan.Project
             ( [ ("iter", "iter") ],
               Plan.Join
                 ( { Plan.equi = [ ("inner", "iter") ]; theta = [] },
                   map, pred_false ) ))
      in
      bool_table env (Plan.Difference (env.loop, outer_with_false)))
  | Ast.Gen_cmp (c, a, b) ->
    let qa = atomize (comp env a) and qb = atomize (comp env b) in
    let matched =
      Plan.Distinct
        (Plan.Project
           ( [ ("iter", "iter") ],
             Plan.Join
               ( { Plan.equi = [ ("iter", "iter") ];
                   theta = [ ("item", cmp_of c, "item") ] },
                 qa, qb ) ))
    in
    bool_table env matched
  | Ast.Val_cmp (c, a, b) ->
    let qa = atomize (comp env a) and qb = atomize (comp env b) in
    Plan.Project
      ( [ ("iter", "iter"); ("item", "v") ],
        Plan.Fun
          ( Plan.P_cmp (cmp_of c),
            { Plan.fun_result = "v"; fun_args = [ "item"; "item'" ] },
            Plan.Join ({ Plan.equi = [ ("iter", "iter") ]; theta = [] }, qa, qb)
          ) )
  | Ast.Arith (op, a, b) ->
    let qa = atomize (comp env a) and qb = atomize (comp env b) in
    Plan.Project
      ( [ ("iter", "iter"); ("item", "v") ],
        Plan.Fun
          ( Plan.P_arith op,
            { Plan.fun_result = "v"; fun_args = [ "item"; "item'" ] },
            Plan.Join ({ Plan.equi = [ ("iter", "iter") ]; theta = [] }, qa, qb)
          ) )
  | Ast.Neg a -> comp env (Ast.Arith (Ast.Sub, Ast.Literal (Atom.Int 0), a))
  | Ast.And (a, b) | Ast.Or (a, b) ->
    let prim = match e with Ast.And _ -> Plan.P_and | _ -> Plan.P_or in
    let qa = ebv_table env (comp env a) and qb = ebv_table env (comp env b) in
    Plan.Project
      ( [ ("iter", "iter"); ("item", "v") ],
        Plan.Fun
          ( prim,
            { Plan.fun_result = "v"; fun_args = [ "item"; "item'" ] },
            Plan.Join ({ Plan.equi = [ ("iter", "iter") ]; theta = [] }, qa, qb)
          ) )
  | Ast.Node_is (a, b) ->
    (* node identity ≡ equality of node cells *)
    comp_binary_cmp env Plan.Ceq a b
  | Ast.Node_before (a, b) -> comp_binary_cmp env Plan.Clt a b
  | Ast.Node_after (a, b) -> comp_binary_cmp env Plan.Cgt a b
  | Ast.Call (f, args) -> comp_call env f args
  | Ast.Range _ -> unsupported "'to' ranges (set-oriented mode)"
  | Ast.Elem_constr _ | Ast.Comp_elem _ | Ast.Text_constr _
  | Ast.Attr_constr _ | Ast.Comment_constr _ | Ast.Doc_constr _ ->
    unsupported "node constructors in the algebra engine"
  | Ast.Typeswitch _ -> unsupported "typeswitch (set-oriented mode)"
  | Ast.Instance_of _ -> unsupported "'instance of' (set-oriented mode)"
  | Ast.Cast _ | Ast.Castable _ -> unsupported "'cast' (set-oriented mode)"
  | Ast.Sort _ -> unsupported "'order by' (set-oriented mode)"
  | Ast.Ifp _ -> unsupported "nested inflationary fixed points"

(* The sub-loop (schema [iter]) of iterations where condition [c] holds.
   Comparison- and existence-shaped conditions map to joins/projections
   directly (no boolean table, no loop difference). *)
and true_iters_of env (c : Ast.expr) : Plan.t =
  match c with
  | Ast.Gen_cmp (cmp, a, b) ->
    let qa = atomize (comp env a) and qb = atomize (comp env b) in
    Plan.Distinct
      (Plan.Project
         ( [ ("iter", "iter") ],
           Plan.Join
             ( { Plan.equi = [ ("iter", "iter") ];
                 theta = [ ("item", cmp_of cmp, "item") ] },
               qa, qb ) ))
  | Ast.And (a, b) ->
    Plan.Distinct
      (Plan.Project
         ( [ ("iter", "iter") ],
           Plan.Join
             ( { Plan.equi = [ ("iter", "iter") ]; theta = [] },
               true_iters_of env a, true_iters_of env b ) ))
  | Ast.Or (a, b) ->
    Plan.Distinct (Plan.Union (true_iters_of env a, true_iters_of env b))
  | Ast.Call ("exists", [ arg ]) ->
    Plan.Distinct (Plan.Project ([ ("iter", "iter") ], comp env arg))
  | Ast.Call ("empty", [ arg ]) ->
    Plan.Difference
      ( env.loop,
        Plan.Distinct (Plan.Project ([ ("iter", "iter") ], comp env arg)) )
  | Ast.Call ("not", [ arg ]) ->
    Plan.Difference (env.loop, true_iters_of env arg)
  | Ast.Call ("true", []) -> env.loop
  | Ast.Call ("false", []) -> Plan.Lit_table ([ "iter" ], [])
  | _ -> ebv_true_iters (comp env c)

and comp_binary_cmp env c a b =
  (* compare the raw cells (no atomization) — used for node order *)
  let qa = comp env a and qb = comp env b in
  Plan.Project
    ( [ ("iter", "iter"); ("item", "v") ],
      Plan.Fun
        ( Plan.P_cmp c,
          { Plan.fun_result = "v"; fun_args = [ "item"; "item'" ] },
          Plan.Join ({ Plan.equi = [ ("iter", "iter") ]; theta = [] }, qa, qb)
        ) )

and iteration_env ?(bind_var = ".") env map inner_loop bind =
  (* Only the iterated binding lives in the inner scope; every other
     variable (and the outer context item) resolves through the hoist
     frame, which lifts the outer value once at its root. *)
  { env with
    loop = inner_loop;
    vars = Smap.singleton bind_var bind;
    hoist = Some { outer = env; frame_map = map };
    locals = [ bind_var ] }

and compile_iteration env ~source ~bind body =
  let (map, inner_loop, bind_plan) = make_map source in
  let env' = iteration_env ~bind_var:bind env map inner_loop bind_plan in
  let result = comp env' body in
  Plan.Iterate
    { Plan.it_name = "loop"; it_source = source; it_map = map;
      it_result = unmap map result }

and comp_call env f args =
  match (f, args) with
  | ("doc", [ Ast.Literal (Atom.Str uri) ]) ->
    Plan.Project
      ( [ ("iter", "iter"); ("item", "item") ],
        Plan.Cross (env.loop, Plan.Doc uri) )
  | ("doc", _) -> unsupported "doc() with a dynamic URI"
  | ("id", [ arg ]) ->
    (* Without a context item the documents of the argument's own nodes
       provide the ID index (mirrors the interpreter's fn:id). *)
    let qarg = comp env arg in
    let ctx =
      match Smap.find_opt "." env.vars with Some p -> p | None -> qarg
    in
    Plan.Id_join (Plan.Distinct ctx, atomize qarg)
  | ("id", [ arg; node ]) ->
    Plan.Id_join (Plan.Distinct (comp env node), atomize (comp env arg))
  | ("count", [ arg ]) ->
    let q = comp env arg in
    let counts =
      Plan.Aggr
        ( Plan.A_count,
          { Plan.agg_result = "cnt"; agg_input = None; agg_partition = Some "iter" },
          q )
    in
    let found =
      Plan.Project ([ ("iter", "iter"); ("item", "cnt") ], counts)
    in
    let missing =
      Plan.Project
        ( [ ("iter", "iter"); ("item", "z") ],
          Plan.Fun
            ( Plan.P_const (Value.Int 0),
              { Plan.fun_result = "z"; fun_args = [] },
              Plan.Difference
                (env.loop, Plan.Project ([ ("iter", "iter") ], counts)) ) )
    in
    Plan.Union (found, missing)
  | ("empty", [ arg ]) ->
    let has_rows = Plan.Distinct (Plan.Project ([ ("iter", "iter") ], comp env arg)) in
    bool_table env (Plan.Difference (env.loop, has_rows))
  | ("exists", [ arg ]) ->
    let has_rows = Plan.Distinct (Plan.Project ([ ("iter", "iter") ], comp env arg)) in
    bool_table env has_rows
  | ("not", [ arg ]) ->
    let q = ebv_table env (comp env arg) in
    Plan.Project
      ( [ ("iter", "iter"); ("item", "v") ],
        Plan.Fun
          (Plan.P_not, { Plan.fun_result = "v"; fun_args = [ "item" ] }, q) )
  | ("boolean", [ arg ]) -> ebv_table env (comp env arg)
  | ("true", []) -> const_table env (Value.Bool true)
  | ("false", []) -> const_table env (Value.Bool false)
  | ("data", [ arg ]) -> atomize (comp env arg)
  | ("string", [ arg ]) -> atomize (comp env arg)
  | ("distinct-values", [ arg ]) -> Plan.Distinct (atomize (comp env arg))
  | ("root", [ arg ]) ->
    Plan.Distinct
      (Plan.Project
         ( [ ("iter", "iter"); ("item", "r") ],
           Plan.Fun
             ( Plan.P_root,
               { Plan.fun_result = "r"; fun_args = [ "item" ] },
               comp env arg ) ))
  | ("root", []) -> comp env Ast.Root
  | ("name", [ arg ]) ->
    Plan.Project
      ( [ ("iter", "iter"); ("item", "n") ],
        Plan.Fun
          (Plan.P_name, { Plan.fun_result = "n"; fun_args = [ "item" ] },
           comp env arg) )
  | ("sum", [ arg ]) -> comp_agg env Plan.A_sum arg (Some (Value.Int 0))
  | ("max", [ arg ]) -> comp_agg env Plan.A_max arg None
  | ("min", [ arg ]) -> comp_agg env Plan.A_min arg None
  | (("position" | "last"), _) ->
    unsupported "%s() (set-oriented mode)" f
  | _ -> (
    match Hashtbl.find_opt env.functions f with
    | None -> unsupported "function %s in the algebra engine" f
    | Some fd ->
      if List.mem f env.inlining then
        unsupported "recursive function %s in the algebra engine" f;
      if List.length fd.Ast.params <> List.length args then
        unsupported "arity mismatch calling %s" f;
      (* Inline: bind each parameter plan, compile the body. Function
         bodies see only their parameters (and globals, which the
         hybrid engine materializes into bindings). *)
      let param_plans =
        List.map2
          (fun (p, _) a -> (p, comp env a))
          fd.Ast.params args
      in
      let vars =
        List.fold_left
          (fun m (p, plan) -> Smap.add p plan m)
          (Smap.filter
             (fun k _ ->
               k <> "."
               && not (List.exists (fun (p, _) -> p = k) fd.Ast.params))
             env.vars)
          param_plans
      in
      comp
        { env with vars; inlining = f :: env.inlining;
          locals = List.map fst fd.Ast.params @ env.locals }
        fd.Ast.body)

and comp_agg env agg arg empty_default =
  let q = atomize (comp env arg) in
  let aggd =
    Plan.Aggr
      ( agg,
        { Plan.agg_result = "v"; agg_input = Some "item";
          agg_partition = Some "iter" },
        q )
  in
  let found = Plan.Project ([ ("iter", "iter"); ("item", "v") ], aggd) in
  match empty_default with
  | None -> found
  | Some dflt ->
    let missing =
      Plan.Project
        ( [ ("iter", "iter"); ("item", "z") ],
          Plan.Fun
            ( Plan.P_const dflt,
              { Plan.fun_result = "z"; fun_args = [] },
              Plan.Difference
                (env.loop, Plan.Project ([ ("iter", "iter") ], aggd)) ) )
    in
    Plan.Union (found, missing)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let item_rows (items : Item.seq) =
  List.map
    (fun it ->
      match it with
      | Item.N n -> [| Value.Int 1; Value.Nd n |]
      | Item.A a -> [| Value.Int 1; Value.of_atom a |])
    items

let seed_table items = Plan.Lit_table (ii, item_rows items)
let items_relation items = Relation.create ii (item_rows items)

let single_loop = Plan.Lit_table ([ "iter" ], [ [| Value.Int 1 |] ])

let body ~functions ~recursion_var ?(bindings = []) e =
  let fix_id = Plan.fresh_fix_id () in
  let binding_refs =
    List.filter_map
      (fun v ->
        if String.equal v recursion_var then None
        else Some (v, Plan.fresh_fix_id ()))
      (List.sort_uniq String.compare bindings)
  in
  let vars =
    List.fold_left
      (fun m (v, id) -> Smap.add v (Plan.Fix_ref (id, ii)) m)
      Smap.empty binding_refs
  in
  let vars = Smap.add recursion_var (Plan.Fix_ref (fix_id, ii)) vars in
  let env =
    { loop = single_loop; vars; functions; inlining = []; hoist = None;
      locals = [] }
  in
  { fix_id; body = comp env e; binding_refs }

let expr ~functions ?(bindings = []) ?context e =
  let vars =
    List.fold_left
      (fun m (v, items) -> Smap.add v (seed_table items) m)
      Smap.empty bindings
  in
  let vars =
    match context with
    | None -> vars
    | Some it -> Smap.add "." (seed_table [ it ]) vars
  in
  comp
    { loop = single_loop; vars; functions; inlining = []; hoist = None;
      locals = [] }
    e

let result_items rel =
  match Relation.col rel "item" with
  | Relation.Nodes a ->
    (* All-node results go to document order. The µ loop hands sorted
       node columns over (sorted-run merge assembly), so this is the
       linear fast path of the ddo kernel, not a fallback sort. *)
    Item.ddo (List.map Item.node (Array.to_list a))
  | c ->
    let items =
      List.init (Relation.cardinal rel) (fun i ->
          match Relation.col_get c i with
          | Value.Nd n -> Item.N n
          | v -> Item.A (Value.to_atom v))
    in
    (* Document order for all-node results; leave atoms as produced. *)
    if List.for_all (function Item.N _ -> true | _ -> false) items then
      Item.ddo items
    else items
