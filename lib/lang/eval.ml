module Item = Fixq_xdm.Item
module Atom = Fixq_xdm.Atom
module Node = Fixq_xdm.Node
module Axis = Fixq_xdm.Axis
module Doc_registry = Fixq_xdm.Doc_registry
module Smap = Map.Make (String)
open Ast

type strategy = Naive | Delta | Auto

exception Error of string

let err fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

module Semiring = Fixq_semiring.Semiring
module Kernel = Fixq_semiring.Kernel

(* AST nodes by physical identity *)
module Loop_tbl = Hashtbl.Make (struct
  type t = expr

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type ifp_site = {
  ifp_var : string;
  ifp_seed : Item.seq;
  ifp_body : Ast.expr;
  ifp_accum : Ast.accum option;
  ifp_bindings : (string * Item.seq) list;
  ifp_context : Item.t option;
}

type t = {
  functions : (string, fundef) Hashtbl.t;
  registry : Doc_registry.t;
  stats : Stats.t;
  mutable strategy : strategy;
  max_iterations : int;
  max_call_depth : int;
  mutable globals : Item.seq Smap.t;
  mutable last_ifp_used_delta : bool option;
  mutable last_annotations :
    (Semiring.kind * (Node.t * Semiring.ann) list) option;
      (** annotated result of the most recent [accumulate by] fixpoint *)
  mutable ifp_handler : (ifp_site -> Item.seq option) option;
  mutable delta_licence : (ifp_site -> bool) option;
      (** [Auto]'s second opinion when Figure 5 rejects a body *)
  stratified : bool;
  loops : (string list * expr list) Loop_tbl.t;
      (** {!invariants} per loop body, by identity: binders, keys *)
  distributive : (string * bool) Loop_tbl.t;
      (** Figure 5's verdict per IFP body, by identity: variable,
          verdict; cleared when functions are (re)declared *)
}

type env = {
  vars : Item.seq Smap.t;
  ctx : (Item.t * int * int) option;  (** item, position, size *)
  depth : int;
  slots : slot list;
      (** loop-invariant subexpressions of the enclosing loops *)
}

(* A subexpression of a [for] body or filter predicate that reads
   nothing the loop changes, found again by the physical identity of
   its AST node. [home] is the loop's entry environment, which binds
   everything the subexpression reads. The value is computed on first
   use, so a guarded branch the loop never takes (say [1 div 0]) still
   never runs; a use that raises leaves it uncomputed. *)
and slot = {
  key : expr;
  home : env;
  mutable value : Item.seq option;
  mutable probe : probe option;  (** atomized once for a general [=] *)
}

and probe = { atoms : Atom.t list; strings : (string, unit) Hashtbl.t option }

let create ?(registry = Doc_registry.default) ?(strategy = Auto)
    ?(max_iterations = 1_000_000) ?(max_call_depth = 100_000)
    ?(stratified = false) () =
  { functions = Hashtbl.create 16; registry; stats = Stats.create ();
    strategy; max_iterations; max_call_depth; globals = Smap.empty;
    last_ifp_used_delta = None; last_annotations = None; ifp_handler = None;
    delta_licence = None; stratified; loops = Loop_tbl.create 16;
    distributive = Loop_tbl.create 8 }

let set_ifp_handler t h = t.ifp_handler <- h
let set_delta_licence t l = t.delta_licence <- l

let stats t = t.stats
let strategy t = t.strategy
let set_strategy t s = t.strategy <- s
let registry t = t.registry
let functions t = t.functions
let last_ifp_used_delta t = t.last_ifp_used_delta
let last_annotations t = t.last_annotations

let builtin_ctx t env =
  let (context_item, context_pos, context_size) =
    match env.ctx with
    | None -> (None, 0, 0)
    | Some (it, pos, size) -> (Some it, pos, size)
  in
  { Builtins.context_item; context_pos; context_size;
    registry = t.registry }

let lookup_var env v =
  match Smap.find_opt v env.vars with
  | Some s -> s
  | None -> err "undefined variable $%s" v

(* ------------------------------------------------------------------ *)
(* Typeswitch matching                                                 *)
(* ------------------------------------------------------------------ *)

let item_matches ty (it : Item.t) =
  match (ty, it) with
  | (It_item, _) -> true
  | (It_node, Item.N _) -> true
  | (It_node, Item.A _) -> false
  | (It_element pat, Item.N n) ->
    n.Node.kind = Node.Element
    && (match pat with None -> true | Some p -> p = Node.name n)
  | (It_element _, Item.A _) -> false
  | (It_attribute pat, Item.N n) ->
    n.Node.kind = Node.Attribute
    && (match pat with None -> true | Some p -> p = Node.name n)
  | (It_attribute _, Item.A _) -> false
  | (It_text, Item.N n) -> n.Node.kind = Node.Text
  | (It_text, Item.A _) -> false
  | (It_comment, Item.N n) -> n.Node.kind = Node.Comment
  | (It_comment, Item.A _) -> false
  | (It_document, Item.N n) -> n.Node.kind = Node.Document
  | (It_document, Item.A _) -> false
  | (It_atomic "integer", Item.A (Atom.Int _)) -> true
  | (It_atomic "double", Item.A (Atom.Dbl _)) -> true
  | (It_atomic "string", Item.A (Atom.Str _)) -> true
  | (It_atomic "boolean", Item.A (Atom.Bool _)) -> true
  | (It_atomic ("decimal" | "numeric"), Item.A (Atom.Int _ | Atom.Dbl _)) ->
    true
  | (It_atomic ("anyAtomicType" | "untypedAtomic"), Item.A _) -> true
  | (It_atomic _, _) -> false

let seq_matches ty (s : Item.seq) =
  match ty with
  | Empty_sequence -> s = []
  | Typed (it, occ) -> (
    let all = List.for_all (item_matches it) s in
    match occ with
    | One -> List.length s = 1 && all
    | Opt -> List.length s <= 1 && all
    | Star -> all
    | Plus -> s <> [] && all)

(* ------------------------------------------------------------------ *)
(* Arithmetic and comparisons                                          *)
(* ------------------------------------------------------------------ *)

let arith_op op a b =
  match op with
  | Add | Sub | Mul -> (
    let f = match op with Add -> ( +. ) | Sub -> ( -. ) | _ -> ( *. ) in
    let fi = match op with Add -> ( + ) | Sub -> ( - ) | _ -> ( * ) in
    match (a, b) with
    | (Atom.Int x, Atom.Int y) -> Atom.Int (fi x y)
    | _ -> Atom.Dbl (f (Atom.to_number a) (Atom.to_number b)))
  | Div ->
    let y = Atom.to_number b in
    if y = 0.0 then err "division by zero"
    else Atom.Dbl (Atom.to_number a /. y)
  | Idiv ->
    let y = Atom.to_int b in
    if y = 0 then err "integer division by zero" else Atom.Int (Atom.to_int a / y)
  | Mod -> (
    match (a, b) with
    | (Atom.Int x, Atom.Int y) ->
      if y = 0 then err "modulus by zero" else Atom.Int (x mod y)
    | _ ->
      let y = Atom.to_number b in
      if y = 0.0 then err "modulus by zero"
      else Atom.Dbl (Float.rem (Atom.to_number a) y))

(* XQuery cast: atomic value conversion by target type name. *)
let cast_atom ty (a : Atom.t) =
  match ty with
  | "integer" | "int" | "long" -> Atom.Int (Atom.to_int a)
  | "double" | "decimal" | "float" -> Atom.Dbl (Atom.to_number a)
  | "string" | "untypedAtomic" | "anyURI" -> Atom.Str (Atom.to_string a)
  | "boolean" -> (
    match a with
    | Atom.Bool _ -> a
    | Atom.Str "true" | Atom.Str "1" -> Atom.Bool true
    | Atom.Str "false" | Atom.Str "0" -> Atom.Bool false
    | Atom.Int 0 -> Atom.Bool false
    | Atom.Int _ -> Atom.Bool true
    | Atom.Dbl f -> Atom.Bool (f <> 0.0 && not (Float.is_nan f))
    | Atom.Str s -> Atom.type_error "cannot cast %S to xs:boolean" s)
  | other -> Atom.type_error "unsupported cast target xs:%s" other

let cmp_result c ord =
  match c with
  | Eq -> ord = 0
  | Ne -> ord <> 0
  | Lt -> ord < 0
  | Le -> ord <= 0
  | Gt -> ord > 0
  | Ge -> ord >= 0

(* General comparison: some pair of atoms compares as [c], tried in
   the order of [va], then of [vb]. *)
let rec exists_pair c va vb =
  match va with
  | [] -> false
  | x :: va' -> exists_with c x vb || exists_pair c va' vb

and exists_with c x = function
  | [] -> false
  | y :: vb -> cmp_result c (Atom.compare_value x y) || exists_with c x vb

(* A boolean result: the two sequences are shared, not built per use. *)
let true_seq = [ Item.A (Atom.Bool true) ]
let false_seq = [ Item.A (Atom.Bool false) ]
let bool_seq b = if b then true_seq else false_seq

(* ------------------------------------------------------------------ *)
(* Node construction                                                   *)
(* ------------------------------------------------------------------ *)

(* Content sequence → (attributes, children): runs of adjacent atoms
   merge into one space-separated text node; document nodes contribute
   their children; attribute nodes become element attributes (they must
   precede other content, which we enforce loosely by collecting them
   wherever they appear). *)
let assemble_content (content : Item.seq) =
  let attrs = ref [] in
  let kids = ref [] in
  let pending = ref [] in
  let flush_atoms () =
    if !pending <> [] then begin
      let s = String.concat " " (List.rev_map Atom.to_string !pending) in
      kids := Node.text s :: !kids;
      pending := []
    end
  in
  List.iter
    (fun it ->
      match it with
      | Item.A a -> pending := a :: !pending
      | Item.N n -> (
        flush_atoms ();
        match n.Node.kind with
        | Node.Attribute -> attrs := (Node.name n, n.Node.content) :: !attrs
        | Node.Document -> List.iter (fun c -> kids := c :: !kids) (Node.children n)
        | _ -> kids := n :: !kids))
    content;
  flush_atoms ();
  (List.rev !attrs, List.rev !kids)

(* ------------------------------------------------------------------ *)
(* Loop-invariant subexpressions                                       *)
(* ------------------------------------------------------------------ *)

let rec find_slot e = function
  | [] -> None
  | s :: rest -> if s.key == e then Some s else find_slot e rest

(* [invariants ~binders body]: the maximal subexpressions of a loop
   body worth evaluating once per loop instance.

   Variables and focuses are numbered by nesting depth inside the body:
   the loop's own variables ([binders]) and its focus are level 0, and a
   binder or a path step / predicate focus opened inside gets the next
   level. A subexpression analysed at variable level [vl] and focus
   level [fl] is invariant when every variable it reads has a level of
   at least [vl] (bound inside it) or is bound outside the loop, and
   every focus it reads has a level above [fl] (opened inside it).
   [go] returns the least variable and focus levels read; [-1] marks
   what is never hoisted and never lets its enclosing expressions be:
   node constructors (fresh identities on every evaluation), nested
   fixpoints (their rounds are counted), and user-function calls.
   Focus readers — [.], [/], axis steps, [position()], [last()],
   [id()], [idref()] and every zero-argument builtin — are never
   invariant at their own level.

   Trivial expressions (literals, variables) are not worth a slot, and
   neither is [e/descendant-or-self::node()]: it is the first half of
   an [e//name] path, which [eval_path] answers from the name index
   only as a whole. The result depends on the AST alone (an enclosing
   loop's slot is invariant here too, so it or an expression around it
   is found), and the function never rewrites the AST. *)
let invariants ~binders body =
  let found = ref [] in
  let none = max_int and never = (-1, -1) in
  let rec go vl fl scope e =
    let before = !found in
    let ((mv, mf) as r) = levels vl fl scope e in
    if mv >= vl && mf > fl && worth_a_slot e then found := e :: before;
    r
  and levels vl fl scope e =
    let both a b = (min (fst a) (fst b), min (snd a) (snd b)) in
    let same = go vl fl scope in
    let inner = go vl (fl + 1) scope in
    let bind vars = List.fold_left (fun sc v -> Smap.add v vl sc) scope vars in
    let under vars = go (vl + 1) fl (bind vars) in
    match e with
    | Literal _ | Empty_seq -> (none, none)
    | Var v -> (Option.value (Smap.find_opt v scope) ~default:none, none)
    | Context_item | Root | Axis_step _ -> (none, fl)
    | Sequence (a, b) | Union (a, b) | Except (a, b) | Intersect (a, b)
    | Arith (_, a, b) | Gen_cmp (_, a, b) | Val_cmp (_, a, b)
    | Node_is (a, b) | Node_before (a, b) | Node_after (a, b)
    | And (a, b) | Or (a, b) | Range (a, b) ->
      both (same a) (same b)
    | Path (a, b) | Filter (a, b) -> both (same a) (inner b)
    | Neg a | Instance_of (a, _) | Cast (a, _, _) | Castable (a, _, _) ->
      same a
    | If (c, a, b) -> both (same c) (both (same a) (same b))
    | For { var; pos; source; body } ->
      both (same source) (under (var :: Option.to_list pos) body)
    | Sort { var; source; key; body; _ } ->
      both (same source) (both (under [ var ] key) (under [ var ] body))
    | Let { var; value; body } -> both (same value) (under [ var ] body)
    | Quantified (_, v, source, pred) -> both (same source) (under [ v ] pred)
    | Typeswitch (scrut, cases, dvar, dbody) ->
      List.fold_left
        (fun r (_, v, b) -> both r (under (Option.to_list v) b))
        (both (same scrut) (under (Option.to_list dvar) dbody))
        cases
    | Call (f, args) ->
      let r = List.fold_left (fun r a -> both r (same a)) (none, none) args in
      if not (Builtins.is_builtin f) then never
      else if args = [] then (fst r, fl)
      else (
        match f with
        | "position" | "last" | "id" | "idref" -> (fst r, min (snd r) fl)
        | _ -> r)
    | Elem_constr (_, attrs, content) ->
      List.iter
        (fun (_, pieces) ->
          List.iter (function A_lit _ -> () | A_expr e -> ignore (same e)) pieces)
        attrs;
      List.iter (fun c -> ignore (same c)) content;
      never
    | Comp_elem (_, a) | Text_constr a | Attr_constr (_, a)
    | Comment_constr a | Doc_constr a ->
      ignore (same a);
      never
    | Ifp _ -> never
  and worth_a_slot = function
    | Literal _ | Empty_seq | Var _ -> false
    | Path (_, Axis_step { axis = Axis.Descendant_or_self; test = Axis.Kind_node }) ->
      false
    | _ -> true
  in
  let scope = List.fold_left (fun sc v -> Smap.add v 0 sc) Smap.empty binders in
  ignore (go 1 0 scope body);
  !found

(* A loop body is analysed once per evaluator, not once per entry: an
   inner loop is entered once per binding of the loops around it. *)
let loop_invariants t ~binders body =
  match Loop_tbl.find_opt t.loops body with
  | Some (b, keys) when b = binders -> keys
  | _ ->
    let keys = invariants ~binders body in
    Loop_tbl.replace t.loops body (binders, keys);
    keys

(* An IFP body is checked once per evaluator, not once per entry: a
   fixpoint inside a loop is entered once per binding. *)
let distributive t var body =
  match Loop_tbl.find_opt t.distributive body with
  | Some (v, verdict) when String.equal v var -> verdict
  | _ ->
    let verdict =
      Distributivity.check ~functions:t.functions ~stratified:t.stratified var body
    in
    Loop_tbl.replace t.distributive body (var, verdict);
    verdict

(* ------------------------------------------------------------------ *)
(* The evaluator                                                       *)
(* ------------------------------------------------------------------ *)

(* A general [=] against a hoisted operand [p], atomized once per loop
   instance: a hash-set probe when both sides are all strings; any other
   mix compares pairwise in the usual order, where [Atom.compare_value]
   may raise. *)
let probe_eq p other ~probe_left =
  match p.strings with
  | Some set when List.for_all (function Atom.Str _ -> true | _ -> false) other ->
    List.exists (function Atom.Str x -> Hashtbl.mem set x | _ -> false) other
  | _ ->
    if probe_left then exists_pair Eq p.atoms other
    else exists_pair Eq other p.atoms

(* What an external engine or a Delta licence sees of an IFP: the whole
   scope (locals and globals), not just fv(body), since compiling the
   body may inline functions whose own bodies reference global
   variables. Built only for the handler or the licence that asks. *)
let ifp_site env var seed_v body accum =
  let bindings =
    Smap.fold
      (fun v value acc -> if String.equal v var then acc else (v, value) :: acc)
      env.vars []
  in
  let context = match env.ctx with Some (it, _, _) -> Some it | None -> None in
  { ifp_var = var; ifp_seed = seed_v; ifp_body = body; ifp_accum = accum;
    ifp_bindings = bindings; ifp_context = context }

(* A chain of [child::name], [@name] and [text()] steps without
   predicates or wildcards, as a value-index key path. *)
let rec key_path = function
  | Axis_step { axis = Axis.Child; test = Axis.Name nm | Axis.Kind_element (Some nm) }
    when not (String.equal nm "*") ->
    Some [ Node.Key_child nm ]
  | Axis_step
      { axis = Axis.Attribute; test = Axis.Name nm | Axis.Kind_attribute (Some nm) }
    when not (String.equal nm "*") ->
    Some [ Node.Key_attr nm ]
  | Axis_step { axis = Axis.Child; test = Axis.Kind_text } -> Some [ Node.Key_text ]
  | Path (a, b) -> (
    match (key_path a, key_path b) with
    | (Some x, Some y) -> Some (x @ y)
    | _ -> None)
  | _ -> None

(* An operand of predicate [p] that reads neither the focus nor anything
   [p] binds: a variable, a literal, or one of [p]'s own invariants. *)
let probe_operand t p v =
  match v with
  | Var _ | Literal _ -> true
  | _ -> List.memq v (loop_invariants t ~binders:[] p)

(* Inside a loop body, a node that is one of the enclosing loops' slots
   answers from the slot; everything else evaluates as usual. *)
let rec eval t env (e : expr) : Item.seq =
  match if env.slots == [] then None else find_slot e env.slots with
  | Some s -> slot_value t s
  | None -> (
  match e with
  | Literal a -> [ Item.A a ]
  | Empty_seq -> []
  | Var v -> lookup_var env v
  | Context_item -> (
    match env.ctx with
    | Some (it, _, _) -> [ it ]
    | None -> err "no context item for '.'")
  | Root -> (
    match env.ctx with
    | Some (Item.N n, _, _) -> [ Item.N (Node.root n) ]
    | Some (Item.A _, _, _) -> err "the context item for '/' is not a node"
    | None -> err "no context item for '/'")
  (* Binary operands evaluate left to right explicitly: OCaml's
     right-to-left argument order would make constructors in the right
     operand allocate node ids first, putting separately constructed
     trees in surprising document order. *)
  | Sequence (a, b) ->
    let va = eval t env a in
    va @ eval t env b
  | Union (a, b) ->
    let va = eval t env a in
    Item.union va (eval t env b)
  | Except (a, b) ->
    let va = eval t env a in
    Item.except va (eval t env b)
  | Intersect (a, b) ->
    let va = eval t env a in
    Item.intersect va (eval t env b)
  | Path (a, b) -> eval_path t env a b
  | Axis_step { axis; test } -> (
    match env.ctx with
    | Some (Item.N n, _, _) ->
      List.map Item.node (Axis.step axis test n)
    | Some (Item.A _, _, _) -> err "axis step on a non-node context item"
    | None -> err "no context item for an axis step")
  | Filter
      ( Axis_step
          { axis = (Axis.Child | Axis.Following_sibling | Axis.Preceding_sibling) as axis;
            test },
        Literal (Atom.Int k) ) -> (
    match env.ctx with
    | Some (Item.N n, _, _) -> (
      match Axis.nth axis test n k with Some m -> [ Item.N m ] | None -> [])
    | Some (Item.A _, _, _) -> err "axis step on a non-node context item"
    | None -> err "no context item for an axis step")
  | Filter (a, p) -> eval_filter t env a p
  | For { var; pos; source; body } ->
    let src = eval t env source in
    let env = hoist t env ~binders:(var :: Option.to_list pos) body src in
    List.concat
      (List.mapi
         (fun i it ->
           let vars = Smap.add var [ it ] env.vars in
           let vars =
             match pos with
             | None -> vars
             | Some p -> Smap.add p [ Item.A (Atom.Int (i + 1)) ] vars
           in
           eval t { env with vars } body)
         src)
  | Sort { var; source; key; descending; body } ->
    let src = eval t env source in
    let keyed =
      List.map
        (fun it ->
          let kv =
            Item.atomize
              (eval t { env with vars = Smap.add var [ it ] env.vars } key)
          in
          let k =
            match kv with
            | [] -> None (* empty keys sort first ("empty least") *)
            | [ a ] -> Some a
            | _ -> err "order by: the key is not a singleton"
          in
          (k, it))
        src
    in
    let cmp (a, _) (b, _) =
      let base =
        match (a, b) with
        | (None, None) -> 0
        | (None, Some _) -> -1
        | (Some _, None) -> 1
        | (Some x, Some y) -> Atom.compare_value x y
      in
      if descending then -base else base
    in
    let sorted = List.stable_sort cmp keyed in
    List.concat_map
      (fun (_, it) ->
        eval t { env with vars = Smap.add var [ it ] env.vars } body)
      sorted
  | Let { var; value; body } ->
    let v = eval t env value in
    eval t { env with vars = Smap.add var v env.vars } body
  | If (c, th, el) ->
    if Item.effective_boolean (eval t env c) then eval t env th
    else eval t env el
  | Quantified (q, v, source, pred) ->
    let src = eval t env source in
    let test it =
      Item.effective_boolean
        (eval t { env with vars = Smap.add v [ it ] env.vars } pred)
    in
    let r =
      match q with
      | Some_ -> List.exists test src
      | Every -> List.for_all test src
    in
    bool_seq r
  | Arith (op, a, b) -> (
    let va = Item.atomize (eval t env a) in
    let vb = Item.atomize (eval t env b) in
    match (va, vb) with
    | ([], _) | (_, []) -> []
    | ([ x ], [ y ]) -> [ Item.A (arith_op op x y) ]
    | _ -> err "arithmetic over non-singleton sequences")
  | Neg a -> (
    match Item.atomize (eval t env a) with
    | [] -> []
    | [ Atom.Int i ] -> [ Item.A (Atom.Int (-i)) ]
    | [ x ] -> [ Item.A (Atom.Dbl (-.Atom.to_number x)) ]
    | _ -> err "unary minus over a non-singleton sequence")
  | Gen_cmp (c, a, b) ->
    (* operands evaluate left to right on every path *)
    let holds =
      match (c, find_slot a env.slots, find_slot b env.slots) with
      | (Eq, Some s, _) ->
        let p = slot_probe t s in
        probe_eq p (Item.atomize (eval t env b)) ~probe_left:true
      | (Eq, None, Some s) ->
        let va = Item.atomize (eval t env a) in
        probe_eq (slot_probe t s) va ~probe_left:false
      | _ ->
        let va = Item.atomize (eval t env a) in
        exists_pair c va (Item.atomize (eval t env b))
    in
    bool_seq holds
  | Val_cmp (c, a, b) -> (
    let va = Item.atomize (eval t env a) in
    let vb = Item.atomize (eval t env b) in
    match (va, vb) with
    | ([], _) | (_, []) -> []
    | ([ x ], [ y ]) -> bool_seq (cmp_result c (Atom.compare_value x y))
    | _ -> err "value comparison over non-singleton sequences")
  | Node_is (a, b) -> eval_node_cmp t env a b (fun x y -> Node.equal x y)
  | Node_before (a, b) ->
    eval_node_cmp t env a b (fun x y -> Node.compare_doc_order x y < 0)
  | Node_after (a, b) ->
    eval_node_cmp t env a b (fun x y -> Node.compare_doc_order x y > 0)
  | And (a, b) ->
    bool_seq
      (Item.effective_boolean (eval t env a) && Item.effective_boolean (eval t env b))
  | Or (a, b) ->
    bool_seq
      (Item.effective_boolean (eval t env a) || Item.effective_boolean (eval t env b))
  | Range (a, b) -> (
    let va = Item.atomize (eval t env a) in
    let vb = Item.atomize (eval t env b) in
    match (va, vb) with
    | ([], _) | (_, []) -> []
    | ([ x ], [ y ]) ->
      let lo = Atom.to_int x and hi = Atom.to_int y in
      let rec build i acc = if i < lo then acc else build (i - 1) (Item.A (Atom.Int i) :: acc) in
      build hi []
    | _ -> err "'to' over non-singleton sequences")
  | Call (f, args) -> eval_call t env f args
  | Elem_constr (name, attr_specs, content) ->
    let attr_of_spec (an, pieces) =
      let v =
        String.concat ""
          (List.map
             (function
               | A_lit s -> s
               | A_expr e ->
                 String.concat " "
                   (List.map Atom.to_string (Item.atomize (eval t env e))))
             pieces)
      in
      (an, v)
    in
    let direct_attrs = List.map attr_of_spec attr_specs in
    let content_items = List.concat_map (eval t env) content in
    let (content_attrs, kids) = assemble_content content_items in
    [ Item.N (Node.element name ~attrs:(direct_attrs @ content_attrs) kids) ]
  | Comp_elem (name, body) ->
    let (content_attrs, kids) = assemble_content (eval t env body) in
    [ Item.N (Node.element name ~attrs:content_attrs kids) ]
  | Text_constr body -> (
    match Item.atomize (eval t env body) with
    | [] -> []
    | atoms ->
      let s = String.concat " " (List.map Atom.to_string atoms) in
      [ Item.N (Node.text s) ])
  | Attr_constr (name, body) ->
    let s =
      String.concat " "
        (List.map Atom.to_string (Item.atomize (eval t env body)))
    in
    [ Item.N (Node.attribute name s) ]
  | Comment_constr body ->
    let s =
      String.concat " "
        (List.map Atom.to_string (Item.atomize (eval t env body)))
    in
    [ Item.N (Node.comment s) ]
  | Doc_constr body ->
    let (attrs, kids) = assemble_content (eval t env body) in
    if attrs <> [] then err "document constructor content has attributes";
    [ Item.N (Node.document kids) ]
  | Instance_of (a, ty) ->
    bool_seq (seq_matches ty (eval t env a))
  | Cast (a, ty, optional) -> (
    match Item.atomize (eval t env a) with
    | [] ->
      if optional then []
      else err "cast as xs:%s: empty sequence (no '?')" ty
    | [ atom ] -> [ Item.A (cast_atom ty atom) ]
    | _ -> err "cast as xs:%s: more than one item" ty)
  | Castable (a, ty, optional) -> (
    match Item.atomize (eval t env a) with
    | [] -> bool_seq optional
    | [ atom ] ->
      bool_seq
        (match cast_atom ty atom with
        | (_ : Atom.t) -> true
        | exception _ -> false)
    | _ -> false_seq)
  | Typeswitch (scrut, cases, dvar, dbody) ->
    let v = eval t env scrut in
    let rec try_cases = function
      | [] ->
        let vars =
          match dvar with
          | None -> env.vars
          | Some x -> Smap.add x v env.vars
        in
        eval t { env with vars } dbody
      | (ty, cvar, body) :: rest ->
        if seq_matches ty v then
          let vars =
            match cvar with
            | None -> env.vars
            | Some x -> Smap.add x v env.vars
          in
          eval t { env with vars } body
        else try_cases rest
    in
    try_cases cases
  | Ifp { var; seed; body; accum } -> eval_ifp t env var seed body accum)

(* The environment a loop instance evaluates its body in: the entry
   environment plus one slot per invariant subexpression that no
   enclosing loop already holds. A source of fewer than two items has
   nothing to share. *)
and hoist t env ~binders body src =
  match src with
  | [] | [ _ ] -> env
  | _ ->
    let slot key =
      if find_slot key env.slots <> None then None
      else Some { key; home = env; value = None; probe = None }
    in
    match List.filter_map slot (loop_invariants t ~binders body) with
    | [] -> env
    | slots -> { env with slots = slots @ env.slots }

(* [s.home] is the loop's entry environment: its slots are the outer
   loops', never [s] itself. *)
and slot_value t s =
  match s.value with
  | Some v -> v
  | None ->
    let v = eval t s.home s.key in
    s.value <- Some v;
    v

and slot_probe t s =
  match s.probe with
  | Some p -> p
  | None ->
    let atoms = Item.atomize (slot_value t s) in
    let strings =
      if List.for_all (function Atom.Str _ -> true | _ -> false) atoms then begin
        let set = Hashtbl.create (List.length atoms) in
        List.iter (function Atom.Str x -> Hashtbl.replace set x () | _ -> ()) atoms;
        Some set
      end
      else None
    in
    let p = { atoms; strings } in
    s.probe <- Some p;
    p

and eval_node_cmp t env a b op =
  let na = eval t env a and nb = eval t env b in
  match (na, nb) with
  | ([], _) | (_, []) -> []
  | ([ Item.N x ], [ Item.N y ]) -> bool_seq (op x y)
  | _ -> err "node comparison requires single nodes"

and eval_path t env a b =
  (* Collapse the // desugaring [e/descendant-or-self::node()/child::T]
     to [e/descendant::T] — same node set for any test T, and the form
     the per-document name index can answer. Through a filter the
     rewrite changes the predicate's context positions, so it is gated
     on the predicate being surely boolean and position()/last()-free. *)
  match (a, b) with
  | ( Path (x, Axis_step { axis = Axis.Descendant_or_self; test = Axis.Kind_node }),
      Axis_step { axis = Axis.Child; test } ) ->
    eval_path t env x (Axis_step { axis = Axis.Descendant; test })
  | ( Path (x, Axis_step { axis = Axis.Descendant_or_self; test = Axis.Kind_node }),
      Filter (Axis_step { axis = Axis.Child; test }, pred) )
    when Ast.surely_boolean pred && not (Ast.calls_position_or_last pred) ->
    eval_path t env x (Filter (Axis_step { axis = Axis.Descendant; test }, pred))
  | _ -> eval_path_steps t env a b

and eval_path_steps t env a b =
  let left = Item.ddo_as "path" (eval t env a) in
  match b with
  | Axis_step { axis; test } ->
    (* Node to node: a bare axis step reads nothing of its focus but
       the node, so the context nodes map straight through the axis
       and one scan orders the hits (DESIGN.md §5, "Node steps"). *)
    let rec gather rev = function
      | [] -> List.rev rev
      | Item.N n :: rest ->
        gather (List.fold_left (fun acc m -> Item.N m :: acc) rev (Axis.step axis test n)) rest
      | Item.A _ :: _ -> assert false (* [ddo_as] passes nodes only *)
    in
    Item.ddo (gather [] left)
  | _ ->
    let size = List.length left in
    let results =
      List.concat
        (List.mapi
           (fun i it -> eval t { env with ctx = Some (it, i + 1, size) } b)
           left)
    in
    let all_nodes = List.for_all (function Item.N _ -> true | _ -> false) results in
    let all_atoms = List.for_all (function Item.A _ -> true | _ -> false) results in
    if all_nodes then Item.ddo results
    else if all_atoms then results
    else err "a path step mixes nodes and atomic values"

(* [E[p = v]] or [E[v = p]] on a [child::E] or [descendant::E] step,
   where [p] is a key path and [v] reads neither the focus nor anything
   the predicate binds, answers from the document's value index; see
   {!Axis.value_probe} for when it declines. *)
and value_probe t env a p =
  match (a, p, env.ctx) with
  | ( Axis_step
        { axis = (Axis.Child | Axis.Descendant) as axis;
          test = Axis.Name name | Axis.Kind_element (Some name) },
      Gen_cmp (Eq, l, r),
      Some (Item.N n, _, _) )
    when not (String.equal name "*") -> (
    let probe path v =
      Axis.value_probe axis name path n ~operand:(fun () ->
          Item.atomize (eval t env v))
    in
    match (key_path l, key_path r) with
    | (Some path, _) when probe_operand t p r -> probe path r
    | (_, Some path) when probe_operand t p l -> probe path l
    | _ -> None)
  | _ -> None

and eval_filter t env a p =
  match value_probe t env a p with
  | Some hits -> List.map Item.node hits
  | None ->
    let src = eval t env a in
    let env = hoist t env ~binders:[] p src in
    let size = List.length src in
    let keep i it =
      let env' = { env with ctx = Some (it, i + 1, size) } in
      let pv = eval t env' p in
      match pv with
      | [ Item.A ((Atom.Int _ | Atom.Dbl _) as num) ] ->
        Float.equal (Atom.to_number num) (float_of_int (i + 1))
      | _ -> Item.effective_boolean pv
    in
    List.filteri keep src

and eval_call t env f args =
  let vargs = List.map (eval t env) args in
  match Builtins.call (builtin_ctx t env) f vargs with
  | Some result -> result
  | None -> (
    match Hashtbl.find_opt t.functions f with
    | None -> err "unknown function %s#%d" f (List.length args)
    | Some fd ->
      if List.length fd.params <> List.length vargs then
        err "function %s expects %d arguments, got %d" f
          (List.length fd.params) (List.length vargs);
      if env.depth >= t.max_call_depth then
        err "maximum call depth exceeded in %s" f;
      (* XQuery functions see globals but not the caller's locals or
         context. *)
      let vars =
        List.fold_left2
          (fun m (p, _) v -> Smap.add p v m)
          t.globals fd.params vargs
      in
      eval t { vars; ctx = None; depth = env.depth + 1; slots = [] } fd.body)

and eval_ifp t env var seed body accum =
  let seed_v = eval t env seed in
  let external_result =
    match t.ifp_handler with
    | None -> None
    | Some handler -> handler (ifp_site env var seed_v body accum)
  in
  match external_result with
  | Some result -> result
  | None -> (
    let body_fn input =
      eval t { env with vars = Smap.add var input env.vars; slots = [] } body
    in
    let use_delta =
      match t.strategy with
      | Naive -> false
      | Delta -> true
      | Auto -> (
        distributive t var body
        ||
        match t.delta_licence with
        | Some licensed -> licensed (ifp_site env var seed_v body accum)
        | None -> false)
    in
    match accum with
    | Some a -> eval_ifp_semiring t env var seed_v body a ~use_delta ~body_fn
    | None -> (
      t.last_ifp_used_delta <- Some use_delta;
      if use_delta then
        Fixpoint.delta ~max_iterations:t.max_iterations ~stats:t.stats
          ~body:body_fn ~seed:seed_v ()
      else
        Fixpoint.naive ~max_iterations:t.max_iterations ~stats:t.stats
          ~body:body_fn ~seed:seed_v ()))

(* [accumulate by …]: route the fixpoint through the semiring kernel.
   [bool] runs the batch kernel with the same naive/delta choice as the
   legacy loop (byte-identical results and round statistics); the other
   kinds feed the body one frontier node at a time so each produced
   node's annotation extends its source's via ⊗, re-feeding only strict
   improvements. *)
and eval_ifp_semiring t env var seed_v body a ~use_delta ~body_fn =
  let kind = a.kind in
  let record ~fed ~produced ~result_size =
    Stats.record_iteration t.stats ~fed ~produced ~result_size
  in
  Stats.start_run t.stats;
  let acc =
    match
      Kernel.run ~max_iterations:t.max_iterations ~kind ~use_delta ~record
        ~body:body_fn
        ~step:(fun n ->
          eval t
            { env with vars = Smap.add var [ Item.N n ] env.vars; slots = [] }
            body)
        ~weight:(weight_fn t env a) ~seed:seed_v ()
    with
    | acc -> acc
    | exception Kernel.Diverged i -> raise (Fixpoint.Diverged i)
  in
  t.last_ifp_used_delta <- Some (kind <> Semiring.Bool || use_delta);
  t.last_annotations <- Some (kind, Kernel.Annot_acc.entries acc);
  Kernel.Annot_acc.to_seq acc

(* The weight expression of [min]/[max] is evaluated once per produced
   node, with that node as the context item (the recursion variable is
   not in scope). It must yield a single number. *)
and weight_fn t env (a : Ast.accum) =
  match a.weight with
  | None -> None
  | Some we ->
    Some
      (fun n ->
        let env' = { env with ctx = Some (Item.N n, 1, 1); slots = [] } in
        match Item.atomize (eval t env' we) with
        | [ atom ] -> Atom.to_number atom
        | [] -> err "accumulate by: the weight expression yielded ()"
        | _ -> err "accumulate by: the weight expression is not a singleton")

(* ------------------------------------------------------------------ *)
(* Program interface                                                   *)
(* ------------------------------------------------------------------ *)

let initial_env t ?(vars = []) ?context () =
  let vmap =
    List.fold_left (fun m (k, v) -> Smap.add k v m) t.globals vars
  in
  let ctx = Option.map (fun it -> (it, 1, 1)) context in
  { vars = vmap; ctx; depth = 0; slots = [] }

let load_prolog t (p : program) =
  List.iter (fun fd -> Hashtbl.replace t.functions fd.fname fd) p.functions;
  if p.functions <> [] then Loop_tbl.reset t.distributive;
  List.iter
    (fun (v, e) ->
      let value = eval t (initial_env t ()) e in
      t.globals <- Smap.add v value t.globals)
    p.variables

let run_program t (p : program) =
  load_prolog t p;
  eval t (initial_env t ()) p.main

let eval_expr t ?vars ?context e = eval t (initial_env t ?vars ?context ()) e

let run_string t src = run_program t (Parser.parse_program src)
