module Lang = Fixq_lang
module Push = Fixq_algebra.Push
module Semiring = Fixq_semiring.Semiring
open Lang.Ast

type divergence = Terminates | Bounded | May_diverge of string

let divergence_string = function
  | Terminates -> "terminates"
  | Bounded -> "bounded"
  | May_diverge _ -> "may-diverge"

let divergence_reason = function
  | Terminates | Bounded -> None
  | May_diverge r -> Some r

type ifp_report = {
  index : int;
  var : string;
  context : string;
  loc : (int * int) option;
  seed : Lang.Ast.expr;
  body : Lang.Ast.expr;
  node_only_seed : bool;
  node_only_body : bool;
  semiring : Semiring.kind option;
      (** the [accumulate by] kind, [None] for a plain IFP *)
  divergence : divergence;
  syntactic : bool;
  blame : Lang.Distributivity.blame option;
  hint_repairable : bool;
}

type t = { diagnostics : Diag.t list; ifps : ifp_report list }

(* ------------------------------------------------------------------ *)
(* Generic traversal *)

let iter_children f e =
  match e with
  | Literal _ | Empty_seq | Var _ | Context_item | Root | Axis_step _ -> ()
  | Sequence (a, b)
  | Union (a, b)
  | Except (a, b)
  | Intersect (a, b)
  | Path (a, b)
  | Filter (a, b)
  | Arith (_, a, b)
  | Gen_cmp (_, a, b)
  | Val_cmp (_, a, b)
  | Node_is (a, b)
  | Node_before (a, b)
  | Node_after (a, b)
  | And (a, b)
  | Or (a, b)
  | Range (a, b) ->
    f a;
    f b
  | Neg a
  | Text_constr a
  | Attr_constr (_, a)
  | Comment_constr a
  | Doc_constr a
  | Comp_elem (_, a)
  | Instance_of (a, _)
  | Cast (a, _, _)
  | Castable (a, _, _) ->
    f a
  | For { source; body; _ } ->
    f source;
    f body
  | Sort { source; key; body; _ } ->
    f source;
    f key;
    f body
  | Let { value; body; _ } ->
    f value;
    f body
  | If (c, t, e') ->
    f c;
    f t;
    f e'
  | Quantified (_, _, s, p) ->
    f s;
    f p
  | Call (_, args) -> List.iter f args
  | Elem_constr (_, attrs, content) ->
    List.iter
      (fun (_, pieces) ->
        List.iter (function A_lit _ -> () | A_expr e -> f e) pieces)
      attrs;
    List.iter f content
  | Typeswitch (s, cases, _, d) ->
    f s;
    List.iter (fun (_, _, b) -> f b) cases;
    f d
  | Ifp { seed; body; accum; _ } ->
    f seed;
    (match accum with Some { weight = Some w; _ } -> f w | _ -> ());
    f body

let rec iter_deep f e =
  f e;
  iter_children (iter_deep f) e

exception Found of expr

let find_deep p e =
  try
    iter_deep (fun e -> if p e then raise (Found e)) e;
    None
  with Found e -> Some e

let exists_deep p e = find_deep p e <> None

(* Identity-preserving map over direct children: [apply_hints] needs a
   top-down mapper (the bottom-up {!Lang.Rewrite.map_expr} rebuilds
   children before the callback sees the parent, destroying the
   physical identities the span table is keyed on). *)
let map_children f e =
  match e with
  | Literal _ | Empty_seq | Var _ | Context_item | Root | Axis_step _ -> e
  | Sequence (a, b) -> Sequence (f a, f b)
  | Union (a, b) -> Union (f a, f b)
  | Except (a, b) -> Except (f a, f b)
  | Intersect (a, b) -> Intersect (f a, f b)
  | Path (a, b) -> Path (f a, f b)
  | Filter (a, b) -> Filter (f a, f b)
  | Arith (op, a, b) -> Arith (op, f a, f b)
  | Gen_cmp (c, a, b) -> Gen_cmp (c, f a, f b)
  | Val_cmp (c, a, b) -> Val_cmp (c, f a, f b)
  | Node_is (a, b) -> Node_is (f a, f b)
  | Node_before (a, b) -> Node_before (f a, f b)
  | Node_after (a, b) -> Node_after (f a, f b)
  | And (a, b) -> And (f a, f b)
  | Or (a, b) -> Or (f a, f b)
  | Range (a, b) -> Range (f a, f b)
  | Neg a -> Neg (f a)
  | Text_constr a -> Text_constr (f a)
  | Attr_constr (n, a) -> Attr_constr (n, f a)
  | Comment_constr a -> Comment_constr (f a)
  | Doc_constr a -> Doc_constr (f a)
  | Comp_elem (n, a) -> Comp_elem (n, f a)
  | Instance_of (a, ty) -> Instance_of (f a, ty)
  | Cast (a, ty, o) -> Cast (f a, ty, o)
  | Castable (a, ty, o) -> Castable (f a, ty, o)
  | For r -> For { r with source = f r.source; body = f r.body }
  | Sort r -> Sort { r with source = f r.source; key = f r.key; body = f r.body }
  | Let r -> Let { r with value = f r.value; body = f r.body }
  | If (c, t, e') -> If (f c, f t, f e')
  | Quantified (q, v, s, p) -> Quantified (q, v, f s, f p)
  | Call (n, args) -> Call (n, List.map f args)
  | Elem_constr (n, attrs, content) ->
    Elem_constr
      ( n,
        List.map
          (fun (an, pieces) ->
            ( an,
              List.map
                (function A_lit l -> A_lit l | A_expr e -> A_expr (f e))
                pieces ))
          attrs,
        List.map f content )
  | Typeswitch (s, cases, dv, db) ->
    Typeswitch (f s, List.map (fun (ty, v, b) -> (ty, v, f b)) cases, dv, f db)
  | Ifp { var; seed; body; accum } ->
    let accum =
      Option.map (fun a -> { a with weight = Option.map f a.weight }) accum
    in
    Ifp { var; seed = f seed; body = f body; accum }

(* ------------------------------------------------------------------ *)
(* Node-only check (moved from [Fixq]) *)

let node_only ~env e =
  let rec go env (e : expr) =
    match e with
    | Root | Axis_step _ | Empty_seq -> true
    | Var v -> List.mem v env
    | Sequence (a, b) | Union (a, b) | Except (a, b) | Intersect (a, b) ->
      go env a && go env b
    (* a path's value is its last step's; a filter's is its subject's *)
    | Path (_, b) -> go env b
    | Filter (a, _) -> go env a
    | If (_, t, e') -> go env t && go env e'
    | For { var; source; body; _ } | Sort { var; source; body; _ } ->
      go (if go env source then var :: env else env) body
    | Let { var; value; body } ->
      go (if go env value then var :: env else env) body
    | Typeswitch (_, cases, _, d) ->
      List.for_all (fun (_, _, b) -> go env b) cases && go env d
    | Ifp { var; seed; body; _ } -> go env seed && go (var :: env) body
    | Call (("doc" | "id" | "idref" | "root"), _) -> true
    | Call (("reverse" | "unordered"), [ a ]) -> go env a
    | _ -> false
  in
  go env e

(* ------------------------------------------------------------------ *)
(* Divergence classification *)

let has_arith_over var body =
  exists_deep
    (fun e ->
      match e with
      | Arith _ | Neg _ | Range _ -> is_free var e
      | _ -> false)
    body

let classify_structural ~var ~seed ~body =
  (* Node-only first: it is the strongest guarantee (finite node
     universe ⇒ termination, Section 2.2) and exactly the cluster's
     scatter precondition — internal constructors or arithmetic in a
     branch whose *value* is still node-only do not endanger it. *)
  if node_only ~env:[] seed && node_only ~env:[ var ] body then Terminates
  else if has_constructor body then
    May_diverge
      "node constructors in the recursive body mint fresh node \
       identities every round"
  else if has_arith_over var body then
    May_diverge
      (Printf.sprintf
         "arithmetic over $%s can mint new atoms every round" var)
  else Bounded

(* Semiring-annotated fixpoints refine the structural verdict by the
   stability of the annotation structure (after Abo Khamis et al.):
   naturally-ordered stable semirings (bool, max, why) keep the
   structural class; a p-stable semiring (min / tropical) caps the
   annotated rounds at |nodes| — never better than Bounded; an
   unstable semiring (count) can grow annotations on every cycle, so
   the site may diverge regardless of node-only structure. *)
let classify ?accum ~var ~seed ~body () =
  let structural = classify_structural ~var ~seed ~body in
  match accum with
  | None | Some { kind = Semiring.Bool; _ } -> structural
  | Some { kind; _ } -> (
    match (Semiring.stability kind, structural) with
    | Semiring.Stable, s -> s
    | Semiring.P_stable, May_diverge r -> May_diverge r
    | Semiring.P_stable, _ -> Bounded
    | Semiring.Unstable, May_diverge r -> May_diverge r
    | Semiring.Unstable, _ ->
      May_diverge
        (Printf.sprintf
           "the %s semiring is not stable: annotations on a cycle \
            through $%s can grow on every round"
           (Semiring.kind_to_string kind) var))

(* ------------------------------------------------------------------ *)
(* Diagnostic constructors *)

let loc_of spans at =
  match (spans, at) with
  | Some spans, Some e -> Lang.Parser.Spans.line_col spans e
  | _ -> None

let of_static ?spans (d : Lang.Static.diagnostic) =
  Diag.make
    ~loc:(loc_of spans d.at)
    ~code:d.code
    ~severity:
      (match d.severity with
      | Lang.Static.Error -> Diag.Error
      | Lang.Static.Warning -> Diag.Warning)
    ~context:d.context d.message

let parse_error_diag ~line ~col msg =
  Diag.make ~loc:(Some (line, col)) ~code:"FQ001" ~severity:Diag.Error
    ~context:"parse" msg

(* ------------------------------------------------------------------ *)
(* Lint rules FQ020–FQ023 *)

let unused_binding_diags ?spans (p : program) =
  let out = ref [] in
  let emit at ctx fmt =
    Format.kasprintf
      (fun message ->
        out :=
          Diag.make ~loc:(loc_of spans (Some at)) ~code:"FQ020"
            ~severity:Diag.Warning ~context:ctx message
          :: !out)
      fmt
  in
  let emit_for at ctx fmt =
    Format.kasprintf
      (fun message ->
        out :=
          Diag.make ~loc:(loc_of spans (Some at)) ~code:"FQ021"
            ~severity:Diag.Warning ~context:ctx message
          :: !out)
      fmt
  in
  let walk ctx =
    iter_deep (fun e ->
        match e with
        | Let { var; body; _ } when not (is_free var body) ->
          emit e ctx "the let binding $%s is never used" var
        | For { var; pos; body; _ } ->
          if not (is_free var body) then
            emit_for e ctx "the for binding $%s is never used" var;
          (match pos with
          | Some p when not (is_free p body) ->
            emit_for e ctx "the positional binding $%s is never used" p
          | _ -> ())
        | Sort { var; key; body; _ }
          when (not (is_free var key)) && not (is_free var body) ->
          emit_for e ctx "the for binding $%s is never used" var
        | _ -> ())
  in
  walk "main" p.main;
  List.iter (fun fd -> walk fd.fname fd.body) p.functions;
  List.iter
    (fun (v, e) -> walk (Printf.sprintf "variable $%s" v) e)
    p.variables;
  List.rev !out

let unused_function_diags ?spans (p : program) =
  let declared = Hashtbl.create 16 in
  List.iter (fun fd -> Hashtbl.replace declared fd.fname fd) p.functions;
  let reached = Hashtbl.create 16 in
  let rec visit e =
    iter_deep
      (fun e ->
        match e with
        | Call (f, _) when Hashtbl.mem declared f && not (Hashtbl.mem reached f)
          ->
          Hashtbl.replace reached f ();
          visit (Hashtbl.find declared f).body
        | _ -> ())
      e
  in
  visit p.main;
  List.iter (fun (_, e) -> visit e) p.variables;
  List.filter_map
    (fun fd ->
      if Hashtbl.mem reached fd.fname then None
      else
        Some
          (Diag.make
             ~loc:
               (match spans with
               | Some s -> Lang.Parser.Spans.fun_line_col s fd.fname
               | None -> None)
             ~code:"FQ022" ~severity:Diag.Warning ~context:fd.fname
             (Printf.sprintf
                "function %s is declared but never called" fd.fname)))
    p.functions

let shadowing_diags ?spans (p : program) =
  let out = ref [] in
  let emit at ctx v =
    out :=
      Diag.make ~loc:(loc_of spans (Some at)) ~code:"FQ023"
        ~severity:Diag.Warning ~context:ctx
        (Printf.sprintf
           "$%s shadows an outer binding inside a recursion body" v)
      :: !out
  in
  (* Only inside IFP bodies: rebinding a name there silently cuts the
     recursion variable (or an outer loop variable) out of scope, which
     is almost always a mistake in a fixpoint. *)
  let rec inside ctx bound e =
    let check at v k =
      if List.mem v bound then emit at ctx v;
      k (v :: bound)
    in
    match e with
    | For { var; pos; source; body } ->
      inside ctx bound source;
      check e var (fun bound ->
          let bound =
            match pos with
            | Some p ->
              if List.mem p bound then emit e ctx p;
              p :: bound
            | None -> bound
          in
          inside ctx bound body)
    | Sort { var; source; key; body; _ } ->
      inside ctx bound source;
      check e var (fun bound ->
          inside ctx bound key;
          inside ctx bound body)
    | Let { var; value; body } ->
      inside ctx bound value;
      check e var (fun bound -> inside ctx bound body)
    | Quantified (_, v, source, pred) ->
      inside ctx bound source;
      check e v (fun bound -> inside ctx bound pred)
    | Typeswitch (scrut, cases, dvar, dbody) ->
      inside ctx bound scrut;
      List.iter
        (fun (_, v, b) ->
          match v with
          | Some v -> check e v (fun bound -> inside ctx bound b)
          | None -> inside ctx bound b)
        cases;
      (match dvar with
      | Some v -> check e v (fun bound -> inside ctx bound dbody)
      | None -> inside ctx bound dbody)
    | Ifp { var; seed; body; accum } ->
      inside ctx bound seed;
      (match accum with
      | Some { weight = Some w; _ } -> inside ctx bound w
      | _ -> ());
      check e var (fun bound -> inside ctx bound body)
    | _ -> iter_children (inside ctx bound) e
  in
  let outside ctx =
    iter_deep (fun e ->
        match e with
        | Ifp { var; body; _ } -> inside ctx [ var ] body
        | _ -> ())
  in
  outside "main" p.main;
  List.iter (fun fd -> outside fd.fname fd.body) p.functions;
  List.iter
    (fun (v, e) -> outside (Printf.sprintf "variable $%s" v) e)
    p.variables;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Per-IFP reports *)

let program_functions (p : program) =
  let functions = Hashtbl.create 16 in
  List.iter (fun fd -> Hashtbl.replace functions fd.fname fd) p.functions;
  functions

let ifp_sites (p : program) =
  let acc = ref [] in
  let walk ctx = iter_deep (fun e ->
      match e with Ifp _ -> acc := (ctx, e) :: !acc | _ -> ())
  in
  walk "main" p.main;
  List.iter (fun fd -> walk fd.fname fd.body) p.functions;
  List.iter
    (fun (v, e) -> walk (Printf.sprintf "variable $%s" v) e)
    p.variables;
  List.rev !acc

let report_of ~functions ~stratified ?spans index (ctx, site) =
  match site with
  | Ifp { var; seed; body; accum } ->
    let syntactic_blame =
      Lang.Distributivity.blame_of ~functions ~stratified var body
    in
    let syntactic = syntactic_blame = None in
    let hint_repairable =
      (not syntactic)
      && (not (has_constructor body))
      && (not (Lang.Distributivity.mentions_position body))
      && (not (exists_deep (function Sort _ -> true | _ -> false) body))
      && (not (exists_deep (function Ifp _ -> true | _ -> false) body))
      && (match accum with
         | Some { kind; _ } -> kind = Semiring.Bool
         | None -> true)
    in
    {
      index;
      var;
      context = ctx;
      loc = loc_of spans (Some site);
      seed;
      body;
      node_only_seed = node_only ~env:[] seed;
      node_only_body = node_only ~env:[ var ] body;
      semiring = Option.map (fun (a : accum) -> a.kind) accum;
      divergence = classify ?accum ~var ~seed ~body ();
      syntactic;
      blame = syntactic_blame;
      hint_repairable;
    }
  | _ -> invalid_arg "report_of: not an IFP site"

(* FQ030: the Figure-5 blame of one IFP body, located at the smallest
   blamed subexpression. *)
let blame_diag ?spans (r : ifp_report) =
  Option.map
    (fun (b : Lang.Distributivity.blame) ->
      let reason = b.Lang.Distributivity.reason in
      let suffix =
        (* most reasons already name their rule *)
        if String.length reason >= 5 && String.sub reason 0 5 = "rule " then
          ""
        else Printf.sprintf " (rule %s)" b.Lang.Distributivity.rule
      in
      Diag.make
        ~loc:(loc_of spans (Some b.Lang.Distributivity.blamed))
        ~code:"FQ030" ~severity:Diag.Warning ~context:r.context
        (Printf.sprintf "not distributive for $%s: %s%s" r.var reason suffix))
    r.blame

let ifp_diags ?spans (r : ifp_report) =
  let at_ifp = r.loc in
  let blame_diags =
    match blame_diag ?spans r with
    | None -> []
    | Some d ->
      if r.hint_repairable then
        [
          d;
          Diag.make ~loc:at_ifp ~code:"FQ032" ~severity:Diag.Info
            ~context:r.context
            (Printf.sprintf
               "the distributivity hint can repair this recursion body \
                (fixq lint --fix-hints)");
        ]
      else [ d ]
  in
  let semiring_stability =
    Option.map Semiring.stability r.semiring
  in
  let divergence_diags =
    match r.divergence with
    | Terminates -> []
    | Bounded when semiring_stability = Some Semiring.P_stable ->
      [
        Diag.make ~loc:at_ifp ~code:"FQ044" ~severity:Diag.Info
          ~context:r.context
          (Printf.sprintf
             "accumulate by %s over $%s is p-stable: the node set \
              converges but annotations improve for up to |nodes| \
              extra rounds"
             (Semiring.kind_to_string
                (Option.get r.semiring))
             r.var);
      ]
    | Bounded ->
      [
        Diag.make ~loc:at_ifp ~code:"FQ041" ~severity:Diag.Info
          ~context:r.context
          (Printf.sprintf
             "fixed point over $%s is bounded but not node-only; serve \
              it with an iteration or time budget"
             r.var);
      ]
    | May_diverge reason when semiring_stability = Some Semiring.Unstable ->
      [
        Diag.make ~loc:at_ifp ~code:"FQ043" ~severity:Diag.Warning
          ~context:r.context
          (Printf.sprintf
             "unstable semiring: accumulate by %s over $%s may \
              diverge: %s"
             (Semiring.kind_to_string (Option.get r.semiring))
             r.var reason);
      ]
    | May_diverge reason ->
      [
        Diag.make ~loc:at_ifp ~code:"FQ040" ~severity:Diag.Warning
          ~context:r.context
          (Printf.sprintf "fixed point over $%s may diverge: %s" r.var
             reason);
      ]
  in
  blame_diags @ divergence_diags

(* ------------------------------------------------------------------ *)
(* Push-block → source mapping *)

let push_block_diag ?spans (r : ifp_report) (o : Push.outcome) =
  match o.Push.blocking with
  | None -> None
  | Some blocking ->
    let starts p = String.length blocking >= String.length p
                   && String.sub blocking 0 (String.length p) = p in
    let find p = find_deep p r.body in
    let culprit =
      if starts "\\" then
        find (function Except _ | Intersect _ -> true | _ -> false)
      else if starts "count" || starts "sum" || starts "max" || starts "min"
      then
        let name =
          match String.index_opt blocking ' ' with
          | Some i -> String.sub blocking 0 i
          | None -> blocking
        in
        find (function Call (f, _) -> f = name | _ -> false)
      else if starts "\xcc\xba" (* ̺ row-numbering *) then
        match
          find (function
            | Call (("position" | "last"), _) -> true
            | _ -> false)
        with
        | Some e -> Some e
        | None -> find (function Filter _ -> true | _ -> false)
      else if starts "#" || starts "document" || starts "text" then
        find (fun e -> has_constructor e && match e with
          | Elem_constr _ | Comp_elem _ | Text_constr _ | Attr_constr _
          | Comment_constr _ | Doc_constr _ -> true
          | _ -> false)
      else None
    in
    let loc =
      match culprit with Some c -> loc_of spans (Some c) | None -> r.loc
    in
    Some
      (Diag.make ~loc ~code:"FQ031" ~severity:Diag.Info ~context:r.context
         (Printf.sprintf
            "the algebraic \xe2\x88\xaa-push is blocked at plan operator \
             '%s'%s"
            blocking
            (match culprit with
            | Some _ -> " \xe2\x80\x94 introduced by this construct"
            | None -> "")))

(* The analyzer's findings with the first IFP's algebraic verdict
   folded in. A blocked push adds its FQ031 mapping. A successful push
   licenses Delta by itself (Theorem 3.2), so Figure 5's FQ030 is then a
   gap in that check's coverage, not a fact about the body: it drops to
   info and says so. *)
let with_push ?spans (a : t) (push : Push.outcome option) =
  match (push, a.ifps) with
  | Some o, r :: _ when o.Push.distributive -> (
    match blame_diag ?spans r with
    | None -> a.diagnostics
    | Some d ->
      let licensed =
        { d with
          Diag.severity = Diag.Info;
          message =
            d.Diag.message ^ "; Delta is still licensed by the algebraic check"
        }
      in
      let rec demote = function
        | [] -> []
        | x :: rest when x = d -> licensed :: rest
        | x :: rest -> x :: demote rest
      in
      demote a.diagnostics)
  | Some o, r :: _ ->
    List.stable_sort Diag.compare
      (a.diagnostics @ Option.to_list (push_block_diag ?spans r o))
  | _ -> a.diagnostics

(* ------------------------------------------------------------------ *)
(* Assembly *)

let analyze ?(stratified = false) ?spans (p : program) =
  let functions = program_functions p in
  let ifps =
    List.mapi (report_of ~functions ~stratified ?spans) (ifp_sites p)
  in
  let diagnostics =
    List.map (of_static ?spans) (Lang.Static.check_program p)
    @ unused_binding_diags ?spans p
    @ unused_function_diags ?spans p
    @ shadowing_diags ?spans p
    @ List.concat_map (ifp_diags ?spans) ifps
  in
  { diagnostics = List.stable_sort Diag.compare diagnostics; ifps }

let count_ifps (p : program) =
  List.length (ifp_sites p)

let scatter_eligible ?(stratified = false) (p : program) =
  count_ifps p = 1
  &&
  match p.main with
  (* Annotated fixpoints never scatter: the keyed gather merges node
     sets, not semiring annotations. *)
  | Ifp { var; seed; body; accum = None } ->
    classify ~var ~seed ~body () = Terminates
    && Lang.Distributivity.check
         ~functions:(program_functions p) ~stratified var body
  | _ -> false

(* ------------------------------------------------------------------ *)
(* IVM eligibility *)

type ivm_class = Ivm_full | Ivm_insert_only | Ivm_ineligible of string

let ivm_string = function
  | Ivm_full -> "full"
  | Ivm_insert_only -> "insert-only"
  | Ivm_ineligible _ -> "ineligible"

let ivm_reason = function
  | Ivm_full | Ivm_insert_only -> None
  | Ivm_ineligible r -> Some r

(* The maintenance grammar: expressions whose value from a context node
   depends only on that node's subtree ("downward"). For such bodies the
   producers whose output a patch can change are exactly the ancestors
   of the edit point, which is what makes the maintenance frontier
   sub-linear. Filters are allowed only when insert-monotone — an
   existing node's predicate can then flip false→true only by gaining
   descendants, i.e. only on the ancestor spine the frontier already
   re-feeds — and any filter at all downgrades eligibility to
   insert-only, because deletions can un-derive filtered results. *)
let downward_axis = function
  | Axis.Child | Axis.Descendant | Axis.Descendant_or_self | Axis.Self
  | Axis.Attribute ->
    true
  | _ -> false

let rec downward_check ~env ~filtered e =
  match e with
  | Var v -> List.mem v env
  | Empty_seq | Context_item -> true
  | Axis_step { axis; _ } -> downward_axis axis
  | Path (a, b) | Sequence (a, b) | Union (a, b) | Intersect (a, b) ->
    downward_check ~env ~filtered a && downward_check ~env ~filtered b
  | Let { var; value; body } ->
    downward_check ~env ~filtered value
    && downward_check ~env:(var :: env) ~filtered body
  | Call ("doc", [ Literal _ ]) -> true
  | Filter (a, p) ->
    filtered := true;
    downward_check ~env ~filtered a && monotone_pred ~env ~filtered p
  | _ -> false

and monotone_pred ~env ~filtered e =
  match e with
  | And (a, b) | Or (a, b) ->
    monotone_pred ~env ~filtered a && monotone_pred ~env ~filtered b
  | Gen_cmp (_, a, b) | Val_cmp (_, a, b) ->
    stable_operand ~env ~filtered a && stable_operand ~env ~filtered b
  | e -> downward_check ~env ~filtered e

(* Comparison operands whose value at an existing node a patch cannot
   change: literals, and downward paths ending in an attribute step
   (attribute values never change under subtree edits; only node
   insertion/removal does, which the frontier covers). *)
and stable_operand ~env ~filtered e =
  match e with
  | Literal _ -> true
  | Axis_step { axis = Axis.Attribute; _ } -> true
  | Path (a, b) ->
    downward_check ~env ~filtered a && stable_operand ~env ~filtered b
  | _ -> false

let ivm_eligibility ?(stratified = false) (p : program) : ivm_class =
  if count_ifps p <> 1 then
    Ivm_ineligible "the program must be a single top-level fixed point"
  else
    match p.main with
    | Ifp { accum = Some _; _ } ->
      Ivm_ineligible
        "annotated fixpoints are not maintained: a patch can change \
         annotations without changing the node set"
    | Ifp { var; seed; body; accum = None } ->
      if classify ~var ~seed ~body () <> Terminates then
        Ivm_ineligible "seed/body are not provably node-only"
      else if
        not
          (Lang.Distributivity.check
             ~functions:(program_functions p) ~stratified var body)
      then Ivm_ineligible "recursion body is not syntactically distributive"
      else begin
        (* Globals extend the environment only when filter-free
           downward themselves (they are re-evaluated against the
           patched document by the maintenance engine). *)
        let env0 =
          List.fold_left
            (fun env (v, e) ->
              let f = ref false in
              if downward_check ~env ~filtered:f e && not !f then v :: env
              else env)
            [] p.variables
        in
        let bf = ref false in
        let sf = ref false in
        if not (downward_check ~env:(var :: env0) ~filtered:bf body) then
          Ivm_ineligible
            "recursion body falls outside the downward maintenance grammar \
             (child/descendant/self/attribute steps, union/intersect, \
             insert-monotone predicates)"
        else if not (downward_check ~env:env0 ~filtered:sf seed) then
          Ivm_ineligible "seed falls outside the downward maintenance grammar"
        else if !bf || !sf then Ivm_insert_only
        else Ivm_full
      end
    | _ -> Ivm_ineligible "the fixed point is not the main expression"

let apply_hints (p : program) (a : t) =
  let repairable =
    List.filter_map
      (fun r -> if r.hint_repairable then Some r.index else None)
      a.ifps
  in
  let applied = ref 0 in
  let idx = ref (-1) in
  let rec go e =
    match e with
    | Ifp { var; seed; body; accum } ->
      incr idx;
      let i = !idx in
      let seed = go seed in
      let body = go body in
      if List.mem i repairable then begin
        incr applied;
        Ifp
          { var; seed; accum;
            body = Lang.Rewrite.distributivity_hint ~var body }
      end
      else Ifp { var; seed; body; accum }
    | e -> map_children go e
  in
  let main = go p.main in
  let functions =
    List.map (fun (fd : fundef) -> { fd with body = go fd.body }) p.functions
  in
  let variables = List.map (fun (v, e) -> (v, go e)) p.variables in
  ({ functions; variables; main }, !applied)
