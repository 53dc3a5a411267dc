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
  globals : (string, Item.seq option ref) Hashtbl.t;
      (** one cell per declared variable name, which compiled code
          holds: a global is looked up once per compile *)
  mutable last_ifp_used_delta : bool option;
  mutable last_annotations :
    (Semiring.kind * (Node.t * Semiring.ann) list) option;
      (** annotated result of the most recent [accumulate by] fixpoint *)
  mutable ifp_handler : (ifp_site -> Item.seq option) option;
  mutable delta_licence : (ifp_site -> bool) option;
      (** [Auto]'s second opinion when Figure 5 rejects a body *)
  stratified : bool;
}

let create ?(registry = Doc_registry.default) ?(strategy = Auto)
    ?(max_iterations = 1_000_000) ?(max_call_depth = 100_000)
    ?(stratified = false) () =
  { functions = Hashtbl.create 16; registry; stats = Stats.create ();
    strategy; max_iterations; max_call_depth; globals = Hashtbl.create 8;
    last_ifp_used_delta = None; last_annotations = None; ifp_handler = None;
    delta_licence = None; stratified }

let set_ifp_handler t h = t.ifp_handler <- h
let set_delta_licence t l = t.delta_licence <- l

let stats t = t.stats
let strategy t = t.strategy
let set_strategy t s = t.strategy <- s
let registry t = t.registry
let functions t = t.functions
let last_ifp_used_delta t = t.last_ifp_used_delta
let last_annotations t = t.last_annotations

let global t v =
  match Hashtbl.find_opt t.globals v with
  | Some cell -> cell
  | None ->
    let cell = ref None in
    Hashtbl.replace t.globals v cell;
    cell

(* ------------------------------------------------------------------ *)
(* Typeswitch matching                                                 *)
(* ------------------------------------------------------------------ *)

let item_matches ty (it : Item.t) =
  let named kind pat n =
    n.Node.kind = kind && Option.fold pat ~none:true ~some:(String.equal (Node.name n))
  in
  match (ty, it) with
  | (It_item, _) | (It_node, Item.N _) -> true
  | (It_element pat, Item.N n) -> named Node.Element pat n
  | (It_attribute pat, Item.N n) -> named Node.Attribute pat n
  | (It_text, Item.N n) -> n.Node.kind = Node.Text
  | (It_comment, Item.N n) -> n.Node.kind = Node.Comment
  | (It_document, Item.N n) -> n.Node.kind = Node.Document
  | (It_atomic "integer", Item.A (Atom.Int _))
  | (It_atomic "double", Item.A (Atom.Dbl _))
  | (It_atomic "string", Item.A (Atom.Str _))
  | (It_atomic "boolean", Item.A (Atom.Bool _))
  | (It_atomic ("decimal" | "numeric"), Item.A (Atom.Int _ | Atom.Dbl _))
  | (It_atomic ("anyAtomicType" | "untypedAtomic"), Item.A _) ->
    true
  | _ -> false

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
(* ------------------------------------------------------------------ *)
(* Loop-invariant subexpressions                                       *)
(* ------------------------------------------------------------------ *)

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
   an [e//name] path, which [compile_path] answers from the name index
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

(* A chain of child and attribute steps without predicates: from one
   node, nested scans of the children and attribute arrays visit its
   hits in document order, without duplicates. *)
let rec child_steps = function
  | Axis_step { axis = (Axis.Child | Axis.Attribute) as axis; test } ->
    Some [ (axis, test) ]
  | Path (a, b) -> (
    match (child_steps a, child_steps b) with
    | (Some x, Some y) -> Some (x @ y)
    | _ -> None)
  | _ -> None

(* Such a chain of [child::name], [@name] and [text()] steps, without
   wildcards, as a value-index key path. *)
let key_path e =
  let key = function
    | (Axis.Child, (Axis.Name nm | Axis.Kind_element (Some nm)))
      when not (String.equal nm "*") ->
      Some (Node.Key_child nm)
    | (Axis.Attribute, (Axis.Name nm | Axis.Kind_attribute (Some nm)))
      when not (String.equal nm "*") ->
      Some (Node.Key_attr nm)
    | (Axis.Child, Axis.Kind_text) -> Some Node.Key_text
    | _ -> None
  in
  match child_steps e with
  | Some steps when List.for_all (fun st -> key st <> None) steps ->
    Some (List.filter_map key steps)
  | _ -> None

(* Whether some hit of [steps] from [n] satisfies [f], found without
   building a list where {!Axis.exists_step} can scan. *)
let rec steps_exist steps n f =
  match steps with
  | [] -> f n
  | [ (axis, test) ] -> Axis.exists_step axis test n f
  | (axis, test) :: rest -> Axis.exists_step axis test n (fun m -> steps_exist rest m f)

(* [left/s1/…/sk] for bare steps: they read nothing of their focus but
   the node, so the context nodes map straight through the axes and one
   scan orders the hits (DESIGN.md §5, "Node steps"). All steps but the
   last are child or attribute steps, which make no duplicates from
   distinct nodes, so only the last step's hits need ordering. *)
let rec chain_onto steps acc (n : Node.t) =
  match steps with
  | [] -> Item.N n :: acc
  | (axis, test) :: rest -> Axis.fold_step axis test n chain_onto rest acc

let rec gather steps rev = function
  | [] -> List.rev rev
  | Item.N n :: rest -> gather steps (chain_onto steps rev n) rest
  | Item.A _ :: _ -> assert false (* [ddo_as] passes nodes only *)

let step_all steps left = Item.ddo (gather steps [] (Item.ddo_as "path" left))

(* ------------------------------------------------------------------ *)
(* Staged evaluation                                                   *)
(* ------------------------------------------------------------------ *)

(* A program is compiled once into closures (DESIGN.md §5, "Staged
   evaluation"). Every variable gets a slot in its activation's frame
   (the main expression's, a global's or one user-function call's), and
   every hoisted subexpression a cell. Compiled code receives the frame
   and the focus — the context item ([no_item] when there is none), its
   position and the context size — as arguments, so binding a variable
   or a focus allocates no environment. *)
type frame = {
  vars : Item.seq array;
  cells : cell array;
  depth : int;  (** user-function calls below the top level *)
}

(* A loop-invariant subexpression's value for the current loop
   instance: reset when the loop is entered, computed on first use, so
   a guarded branch the loop never takes (say [1 div 0]) still never
   runs; a use that raises leaves it uncomputed. *)
and cell = { mutable value : Item.seq option; mutable probe : probe option }

(* An operand atomized once: a hash set too when it is more than four
   strings. *)
and probe = { atoms : Atom.t list; strings : (string, unit) Hashtbl.t option }

type code = frame -> Item.t -> int -> int -> Item.seq
type test = frame -> Item.t -> int -> int -> bool

(* The focus of code that has none, told apart by physical identity. *)
let no_item = Item.A (Atom.Str "\000no context item")

let context_item it = if it == no_item then None else Some it

let focus_node it =
  match it with
  | Item.N n -> n
  | Item.A _ when it == no_item -> err "no context item for an axis step"
  | Item.A _ -> err "axis step on a non-node context item"

(* The slots an activation needs, known once its code is compiled. *)
type layout = { mutable nvars : int; mutable ncells : int }

type scope = {
  locals : int Smap.t;  (** variable name → frame slot *)
  keys : (expr * (int * code)) list;
      (** the enclosing loops' invariant subexpressions, by physical
          identity: cell and the code that computes it *)
  layout : layout;
}

type compiled_fn = { mutable body : code; fn_layout : layout }

type cx = {
  ev : t;
  fns : (string, compiled_fn) Hashtbl.t;  (** user functions compiled so far *)
  unfocused : Builtins.ctx;  (** what a builtin that reads no focus gets *)
}

let new_frame l depth =
  { vars = Array.make l.nvars [];
    cells = Array.init l.ncells (fun _ -> { value = None; probe = None });
    depth }

let bind sc v =
  let i = sc.layout.nvars in
  sc.layout.nvars <- i + 1;
  (i, { sc with locals = Smap.add v i sc.locals })

let all_strings = List.for_all (function Atom.Str _ -> true | _ -> false)

let rec reset fr = function
  | [] -> ()
  | c :: rest ->
    let cl = fr.cells.(c) in
    cl.value <- None;
    cl.probe <- None;
    reset fr rest

let cell_value fr c (key : code) it pos size =
  let cl = fr.cells.(c) in
  match cl.value with
  | Some v -> v
  | None ->
    let v = key fr it pos size in
    cl.value <- Some v;
    v

let cell_probe fr c key it pos size =
  let cl = fr.cells.(c) in
  match cl.probe with
  | Some p -> p
  | None ->
    let atoms = Item.atomize (cell_value fr c key it pos size) in
    let strings =
      if all_strings atoms && List.compare_length_with atoms 4 > 0 then begin
        let set = Hashtbl.create (List.length atoms) in
        List.iter (function Atom.Str x -> Hashtbl.replace set x () | _ -> ()) atoms;
        Some set
      end
      else None
    in
    let p = { atoms; strings } in
    cl.probe <- Some p;
    p

let rec eval_all codes fr it pos size =
  match codes with
  | [] -> []
  | (c : code) :: rest ->
    let v = c fr it pos size in
    v :: eval_all rest fr it pos size

(* A general comparison operand as read at run time: atoms, or the
   string values of [steps] from a node, read where they are. *)
type side = Atoms of probe | Keys of (Axis.t * Axis.test) list * Node.t

(* Some pair compares as [c], tried in the order of the left side, then
   of the right; an [=] against a hoisted all-string operand is a hash
   probe when the other side is all strings too. *)
let holds c l r =
  let sv = Node.string_value in
  match (l, r) with
  | (Atoms p, Atoms q) -> (
    match (c, p.strings, q.strings) with
    | (Eq, Some set, _) when all_strings q.atoms ->
      List.exists (function Atom.Str x -> Hashtbl.mem set x | _ -> false) q.atoms
    | (Eq, _, Some set) when all_strings p.atoms ->
      List.exists (function Atom.Str x -> Hashtbl.mem set x | _ -> false) p.atoms
    | _ -> exists_pair c p.atoms q.atoms)
  | (Keys (st, n), Atoms { strings = Some set; _ })
  | (Atoms { strings = Some set; _ }, Keys (st, n))
    when c = Eq ->
    steps_exist st n (fun m -> Hashtbl.mem set (sv m))
  | (Keys (st, n), Atoms q) -> steps_exist st n (fun m -> exists_with c (Atom.Str (sv m)) q.atoms)
  | (Atoms p, Keys (st, n)) ->
    List.exists (fun x -> steps_exist st n (fun m -> exists_with c x [ Atom.Str (sv m) ])) p.atoms
  | (Keys (s1, n1), Keys (s2, n2)) ->
    steps_exist s1 n1 (fun m ->
        let x = sv m in
        steps_exist s2 n2 (fun m2 -> cmp_result c (String.compare x (sv m2))))

(* What an external engine or a Delta licence sees of an IFP: the whole
   scope (locals and globals), not just fv(body), since compiling the
   body may inline functions whose own bodies reference global
   variables. Built only for the handler or the licence that asks. *)
let ifp_site t locals fr it var seed_v body accum =
  let add v cell m = Option.fold !cell ~none:m ~some:(fun s -> Smap.add v s m) in
  let globals = Hashtbl.fold add t.globals Smap.empty in
  let vars = Smap.fold (fun v i m -> Smap.add v fr.vars.(i) m) locals globals in
  { ifp_var = var; ifp_seed = seed_v; ifp_body = body; ifp_accum = accum;
    ifp_bindings = List.rev (Smap.bindings (Smap.remove var vars));
    ifp_context = context_item it }

let bool_code (b : test) : code = fun fr it pos size -> bool_seq (b fr it pos size)
let ebv (c : code) : test = fun fr it pos size -> Item.effective_boolean (c fr it pos size)

(* Inside a loop body, a node that is one of the enclosing loops'
   invariants reads its cell; everything else compiles by its shape. *)
let rec compile cx sc (e : expr) : code =
  match List.assq_opt e sc.keys with
  | Some (c, key) -> fun fr it pos size -> cell_value fr c key it pos size
  | None -> compile_node cx sc e

and compile_node cx sc e : code =
  let c = compile cx sc in
  (* Binary operands evaluate left to right explicitly: OCaml's
     right-to-left argument order would make constructors in the right
     operand allocate node ids first, putting separately constructed
     trees in surprising document order. *)
  let binary f a b =
    let ca = c a and cb = c b in
    fun fr it pos size ->
      let va = ca fr it pos size in
      f va (cb fr it pos size)
  in
  let atomized a = let ca = c a in fun fr it pos size -> Item.atomize (ca fr it pos size) in
  (* both operands atomized; () when either is empty *)
  let singletons what a b f =
    let va = atomized a and vb = atomized b in
    fun fr it p s ->
      let xa = va fr it p s in
      match (xa, vb fr it p s) with
      | ([], _) | (_, []) -> []
      | ([ x ], [ y ]) -> f x y
      | _ -> err "%s over non-singleton sequences" what
  in
  let nodes a b op =
    binary
      (fun na nb ->
        match (na, nb) with
        | ([], _) | (_, []) -> []
        | ([ Item.N x ], [ Item.N y ]) -> bool_seq (op x y)
        | _ -> err "node comparison requires single nodes")
      a b
  in
  let joined a =
    let va = atomized a in
    fun fr it p s -> String.concat " " (List.map Atom.to_string (va fr it p s))
  in
  match e with
  | Literal a ->
    let v = [ Item.A a ] in
    fun _ _ _ _ -> v
  | Empty_seq -> fun _ _ _ _ -> []
  | Var v -> (
    match Smap.find_opt v sc.locals with
    | Some i -> fun fr _ _ _ -> fr.vars.(i)
    | None ->
      let cell = global cx.ev v in
      fun _ _ _ _ ->
        match !cell with Some s -> s | None -> err "undefined variable $%s" v)
  | Context_item ->
    fun _ it _ _ -> if it == no_item then err "no context item for '.'" else [ it ]
  | Root -> (
    fun _ it _ _ ->
      match it with
      | Item.N n -> [ Item.N (Node.root n) ]
      | Item.A _ when it == no_item -> err "no context item for '/'"
      | Item.A _ -> err "the context item for '/' is not a node")
  | Sequence (a, b) -> binary ( @ ) a b
  | Union (a, b) -> binary Item.union a b
  | Except (a, b) -> binary Item.except a b
  | Intersect (a, b) -> binary Item.intersect a b
  | Path (a, b) -> compile_path cx sc a b
  | Axis_step { axis; test } ->
    fun _ it _ _ -> List.map Item.node (Axis.step axis test (focus_node it))
  | Filter
      ( Axis_step
          { axis = (Axis.Child | Axis.Following_sibling | Axis.Preceding_sibling) as axis; test },
        Literal (Atom.Int k) ) ->
    let hit m = [ Item.N m ] in
    fun _ it _ _ -> Option.fold (Axis.nth axis test (focus_node it) k) ~none:[] ~some:hit
  | Filter (a, p) -> compile_filter cx sc a p
  | For { var; pos; source; body } ->
    let csrc = c source in
    let (i, inner) = bind sc var in
    let (pi, inner) =
      match pos with None -> (-1, inner) | Some p -> bind inner p
    in
    let (keys, cells) = hoist cx sc (invariants ~binders:(var :: Option.to_list pos) body) in
    let cbody = compile cx { inner with keys } body in
    fun fr it p s ->
      let src = csrc fr it p s in
      reset fr cells;
      let rec go k acc = function
        | [] -> List.rev acc
        | x :: rest ->
          fr.vars.(i) <- [ x ];
          if pi >= 0 then fr.vars.(pi) <- [ Item.A (Atom.Int k) ];
          go (k + 1) (List.rev_append (cbody fr it p s) acc) rest
      in
      go 1 [] src
  | Sort { var; source; key; descending; body } ->
    let csrc = c source in
    let (i, inner) = bind sc var in
    let ckey = compile cx inner key and cbody = compile cx inner body in
    fun fr it p s ->
      let keyed =
        List.map
          (fun x ->
            fr.vars.(i) <- [ x ];
            match Item.atomize (ckey fr it p s) with
            | [] -> (None, x) (* empty keys sort first ("empty least") *)
            | [ a ] -> (Some a, x)
            | _ -> err "order by: the key is not a singleton")
          (csrc fr it p s)
      in
      let cmp (a, _) (b, _) =
        let base = Option.compare Atom.compare_value a b in
        if descending then -base else base
      in
      List.concat_map
        (fun (_, x) ->
          fr.vars.(i) <- [ x ];
          cbody fr it p s)
        (List.stable_sort cmp keyed)
  | Let { var; value; body } ->
    let cv = c value in
    let (i, inner) = bind sc var in
    let cbody = compile cx inner body in
    fun fr it p s ->
      fr.vars.(i) <- cv fr it p s;
      cbody fr it p s
  | If (cond, th, el) ->
    let bc = compile_bool cx sc cond and ct = c th and ce = c el in
    fun fr it p s -> if bc fr it p s then ct fr it p s else ce fr it p s
  | Quantified _ | Gen_cmp _ | And _ | Or _
  | Call (("not" | "exists" | "empty" | "boolean"), [ _ ]) ->
    bool_code (compile_bool cx sc e)
  | Arith (op, a, b) -> singletons "arithmetic" a b (fun x y -> [ Item.A (arith_op op x y) ])
  | Neg a -> (
    let va = atomized a in
    fun fr it p s ->
      match va fr it p s with
      | [] -> []
      | [ Atom.Int i ] -> [ Item.A (Atom.Int (-i)) ]
      | [ x ] -> [ Item.A (Atom.Dbl (-.Atom.to_number x)) ]
      | _ -> err "unary minus over a non-singleton sequence")
  | Val_cmp (cmp, a, b) ->
    singletons "value comparison" a b (fun x y ->
        bool_seq (cmp_result cmp (Atom.compare_value x y)))
  | Node_is (a, b) -> nodes a b (fun x y -> Node.equal x y)
  | Node_before (a, b) -> nodes a b (fun x y -> Node.compare_doc_order x y < 0)
  | Node_after (a, b) -> nodes a b (fun x y -> Node.compare_doc_order x y > 0)
  | Range (a, b) ->
    singletons "'to'" a b (fun x y ->
        let lo = Atom.to_int x and hi = Atom.to_int y in
        let rec build i acc = if i < lo then acc else build (i - 1) (Item.A (Atom.Int i) :: acc) in
        build hi [])
  | Call (f, args) -> compile_call cx sc f args
  | Elem_constr (name, attr_specs, content) ->
    let piece = function A_lit s -> fun _ _ _ _ -> s | A_expr e -> joined e in
    let attrs = List.map (fun (an, pieces) -> (an, List.map piece pieces)) attr_specs in
    let content = List.map c content in
    fun fr it p s ->
      let attr (an, pieces) = (an, String.concat "" (List.map (fun v -> v fr it p s) pieces)) in
      let direct_attrs = List.map attr attrs in
      let (content_attrs, kids) =
        assemble_content (List.concat_map (fun (cc : code) -> cc fr it p s) content)
      in
      [ Item.N (Node.element name ~attrs:(direct_attrs @ content_attrs) kids) ]
  | Comp_elem (name, body) ->
    let cb = c body in
    fun fr it p s ->
      let (content_attrs, kids) = assemble_content (cb fr it p s) in
      [ Item.N (Node.element name ~attrs:content_attrs kids) ]
  | Text_constr body -> (
    let vb = atomized body in
    fun fr it p s ->
      match vb fr it p s with
      | [] -> []
      | atoms -> [ Item.N (Node.text (String.concat " " (List.map Atom.to_string atoms))) ])
  | Attr_constr (name, body) ->
    let vb = joined body in
    fun fr it p s -> [ Item.N (Node.attribute name (vb fr it p s)) ]
  | Comment_constr body ->
    let vb = joined body in
    fun fr it p s -> [ Item.N (Node.comment (vb fr it p s)) ]
  | Doc_constr body ->
    let cb = c body in
    fun fr it p s ->
      let (attrs, kids) = assemble_content (cb fr it p s) in
      if attrs <> [] then err "document constructor content has attributes";
      [ Item.N (Node.document kids) ]
  | Instance_of (a, ty) ->
    let ca = c a in
    fun fr it p s -> bool_seq (seq_matches ty (ca fr it p s))
  | Cast (a, ty, optional) -> (
    let va = atomized a in
    fun fr it p s ->
      match va fr it p s with
      | [] -> if optional then [] else err "cast as xs:%s: empty sequence (no '?')" ty
      | [ atom ] -> [ Item.A (cast_atom ty atom) ]
      | _ -> err "cast as xs:%s: more than one item" ty)
  | Castable (a, ty, optional) -> (
    let va = atomized a in
    fun fr it p s ->
      match va fr it p s with
      | [] -> bool_seq optional
      | [ atom ] ->
        bool_seq (match cast_atom ty atom with (_ : Atom.t) -> true | exception _ -> false)
      | _ -> false_seq)
  | Typeswitch (scrut, cases, dvar, dbody) ->
    let cs = c scrut in
    let branch v body =
      match v with
      | None -> (-1, compile cx sc body)
      | Some x ->
        let (i, inner) = bind sc x in
        (i, compile cx inner body)
    in
    let cases = List.map (fun (ty, v, body) -> (ty, branch v body)) cases in
    let default = branch dvar dbody in
    fun fr it p s ->
      let v = cs fr it p s in
      let (i, cb) =
        match List.find_opt (fun (ty, _) -> seq_matches ty v) cases with
        | Some (_, b) -> b
        | None -> default
      in
      if i >= 0 then fr.vars.(i) <- v;
      cb fr it p s
  | Ifp { var; seed; body; accum } -> compile_ifp cx sc var seed body accum

(* The loop body's invariants that no enclosing loop already holds get
   a cell each, computed by code compiled in the loop's entry scope;
   returns the body's keys and the cells to reset on entry. *)
and hoist cx sc invariants =
  let fresh = List.filter (fun k -> not (List.mem_assq k sc.keys)) invariants in
  let keys =
    List.map
      (fun k ->
        let c = sc.layout.ncells in
        sc.layout.ncells <- c + 1;
        (k, (c, compile_node cx sc k)))
      fresh
  in
  (keys @ sc.keys, List.map (fun (_, (c, _)) -> c) keys)

and compile_path cx sc a b : code =
  (* Collapse the // desugaring [e/descendant-or-self::node()/child::T]
     to [e/descendant::T] — same node set for any test T, and the form
     the per-document name index can answer. Through a filter the
     rewrite changes the predicate's context positions, so it is gated
     on the predicate being surely boolean or surely a node sequence,
     and position()/last()-free. *)
  match (a, b) with
  | ( Path (x, Axis_step { axis = Axis.Descendant_or_self; test = Axis.Kind_node }),
      Axis_step { axis = Axis.Child; test } ) ->
    compile_path cx sc x (Axis_step { axis = Axis.Descendant; test })
  | ( Path (x, Axis_step { axis = Axis.Descendant_or_self; test = Axis.Kind_node }),
      Filter (Axis_step { axis = Axis.Child; test }, pred) )
    when (Ast.surely_boolean pred || Ast.surely_nodes pred)
         && not (Ast.calls_position_or_last pred) ->
    compile_path cx sc x (Filter (Axis_step { axis = Axis.Descendant; test }, pred))
  | (_, Axis_step { axis; test }) ->
    (* child and attribute steps before [b] join it, unless one is
       hoisted or ends a [//] the collapse answers *)
    let rec split steps = function
      | Path (Path (_, Axis_step { axis = Axis.Descendant_or_self; _ }), _) as e -> (e, steps)
      | Path (x, Axis_step { axis = (Axis.Child | Axis.Attribute) as axis; test }) as e
        when not (List.mem_assq e sc.keys) ->
        split ((axis, test) :: steps) x
      | e -> (e, steps)
    in
    let (base, steps) = split [ (axis, test) ] a in
    let cb = compile cx sc base in
    fun fr it p s -> step_all steps (cb fr it p s)
  | _ ->
    let ca = compile cx sc a and cb = compile cx sc b in
    fun fr it p s ->
      let left = Item.ddo_as "path" (ca fr it p s) in
      let size = List.length left in
      let rec go k acc = function
        | [] -> List.rev acc
        | x :: rest -> go (k + 1) (List.rev_append (cb fr x k size) acc) rest
      in
      let results = go 1 [] left in
      if List.for_all (function Item.N _ -> true | _ -> false) results then Item.ddo results
      else if List.for_all (function Item.A _ -> true | _ -> false) results then results
      else err "a path step mixes nodes and atomic values"

(* [E[p = v]] or [E[v = p]] on a [child::E] or [descendant::E] step,
   where [p] is a key path and [v] is a variable, a literal or one of
   the predicate's invariants (it reads neither the focus nor anything
   the predicate binds), answers from the document's value index; see
   {!Axis.value_probe} for when it declines. *)
and value_probe cx sc invariants a p =
  match (a, p) with
  | ( Axis_step
        { axis = (Axis.Child | Axis.Descendant) as axis;
          test = Axis.Name name | Axis.Kind_element (Some name) },
      Gen_cmp (Eq, l, r) )
    when not (String.equal name "*") -> (
    let operand = function
      | Var _ | Literal _ -> true
      | v -> List.memq v invariants
    in
    let route path v =
      let cv = compile cx sc v in
      Some
        (fun fr it pos size ->
          match it with
          | Item.N n ->
            Axis.value_probe axis name path n ~operand:(fun () ->
                Item.atomize (cv fr it pos size))
          | Item.A _ -> None)
    in
    match (key_path l, key_path r) with
    | (Some path, _) when operand r -> route path r
    | (_, Some path) when operand l -> route path l
    | _ -> None)
  | _ -> None

and compile_filter cx sc a p : code =
  let invariants = invariants ~binders:[] p in
  let probe = value_probe cx sc invariants a p in
  let ca = compile cx sc a in
  let (keys, cells) = hoist cx sc invariants in
  let keep = compile_pred cx { sc with keys } p in
  let scan fr it pos size =
    let src = ca fr it pos size in
    reset fr cells;
    let n = List.length src in
    let rec go k acc = function
      | [] -> List.rev acc
      | x :: rest -> go (k + 1) (if keep fr x k n then x :: acc else acc) rest
    in
    go 1 [] src
  in
  match probe with
  | None -> scan
  | Some probe -> (
    fun fr it pos size ->
      match probe fr it pos size with
      | Some hits -> List.map Item.node hits
      | None -> scan fr it pos size)

(* A predicate keeps its item when its value is the item's position (a
   single number) or otherwise has a true effective boolean value. A
   predicate that is surely boolean or surely nodes cannot be a number. *)
and compile_pred cx sc p : test =
  if Ast.surely_boolean p then compile_bool cx sc p
  else if Ast.surely_nodes p then compile_exists cx sc p
  else
    let cp = compile cx sc p in
    fun fr it pos size ->
      match cp fr it pos size with
      | [ Item.A ((Atom.Int _ | Atom.Dbl _) as num) ] ->
        Float.equal (Atom.to_number num) (float_of_int pos)
      | pv -> Item.effective_boolean pv

(* Boolean mode: the effective boolean value of [e], without building
   the sequence where [e]'s shape allows. *)
and compile_bool cx sc e : test =
  let b = compile_bool cx sc in
  match e with
  | _ when List.mem_assq e sc.keys -> ebv (compile cx sc e)
  | And (x, y) ->
    let bx = b x and by = b y in
    fun fr it p s -> bx fr it p s && by fr it p s
  | Or (x, y) ->
    let bx = b x and by = b y in
    fun fr it p s -> bx fr it p s || by fr it p s
  | Quantified (q, v, source, pred) ->
    let cs = compile cx sc source in
    let (i, inner) = bind sc v in
    let bp = compile_bool cx inner pred in
    let quantify = match q with Some_ -> List.exists | Every -> List.for_all in
    fun fr it p s -> quantify (fun x -> fr.vars.(i) <- [ x ]; bp fr it p s) (cs fr it p s)
  | Call ("not", [ x ]) ->
    let bx = b x in
    fun fr it p s -> not (bx fr it p s)
  | Call ("boolean", [ x ]) -> b x
  | Call ("exists", [ x ]) -> compile_exists cx sc x
  | Call ("empty", [ x ]) ->
    let ex = compile_exists cx sc x in
    fun fr it p s -> not (ex fr it p s)
  | Gen_cmp (c, x, y) ->
    let sx = compile_side cx sc c x and sy = compile_side cx sc c y in
    fun fr it p s ->
      let l = sx fr it p s in
      holds c l (sy fr it p s)
  | _ -> ebv (compile cx sc e)

(* Whether [e] is non-empty; child and attribute steps from the focus
   stop at the first hit. *)
and compile_exists cx sc e : test =
  match child_steps e with
  | Some steps -> fun _ it _ _ -> steps_exist steps (focus_node it) (fun _ -> true)
  | None ->
    let ce = compile cx sc e in
    fun fr it p s -> match ce fr it p s with [] -> false | _ -> true

(* A general comparison operand: a literal, or a hoisted operand of
   [=], is atomized once; child and attribute steps from the focus, or a step
   from an operand that is one node, are read in place. *)
and compile_side cx sc cmp e =
  match (List.assq_opt e sc.keys, e) with
  | (Some (c, key), _) when cmp = Eq -> fun fr it p s -> Atoms (cell_probe fr c key it p s)
  | (Some (c, key), _) ->
    fun fr it p s -> Atoms { atoms = Item.atomize (cell_value fr c key it p s); strings = None }
  | (None, Literal a) ->
    let side = Atoms { atoms = [ a ]; strings = None } in
    fun _ _ _ _ -> side
  | (None, _) -> (
    match (child_steps e, e) with
    | (Some steps, _) -> fun _ it _ _ -> Keys (steps, focus_node it)
    | (None, Path (a, Axis_step { axis = (Axis.Child | Axis.Attribute) as axis; test })) ->
      let ca = compile cx sc a in
      fun fr it p s -> (
        match ca fr it p s with
        | [ Item.N n ] -> Keys ([ (axis, test) ], n)
        | left -> Atoms { atoms = Item.atomize (step_all [ (axis, test) ] left); strings = None })
    | (None, _) ->
      let ce = compile cx sc e in
      fun fr it p s -> Atoms { atoms = Item.atomize (ce fr it p s); strings = None })

and compile_call cx sc f args : code =
  let codes = List.map (compile cx sc) args in
  match Builtins.find f with
  | Some fn when args <> [] && not (String.equal f "id" || String.equal f "idref") ->
    fun fr it p s -> fn cx.unfocused (eval_all codes fr it p s)
  | Some fn ->
    (* zero-argument builtins, [id()] and [idref()] read the focus *)
    let registry = cx.ev.registry in
    fun fr it p s ->
      let vargs = eval_all codes fr it p s in
      fn { Builtins.context_item = context_item it; context_pos = p; context_size = s; registry }
        vargs
  | None -> (
    match Hashtbl.find_opt cx.ev.functions f with
    | None ->
      fun fr it p s ->
        ignore (eval_all codes fr it p s);
        err "unknown function %s#%d" f (List.length args)
    | Some fd ->
      let uf = compile_fn cx fd in
      let arity = List.length fd.params in
      fun fr it p s ->
        let vargs = eval_all codes fr it p s in
        if arity <> List.length vargs then
          err "function %s expects %d arguments, got %d" f arity (List.length vargs);
        if fr.depth >= cx.ev.max_call_depth then err "maximum call depth exceeded in %s" f;
        (* XQuery functions see globals but not the caller's locals or
           context. *)
        let callee = new_frame uf.fn_layout (fr.depth + 1) in
        List.iteri (fun k v -> callee.vars.(k) <- v) vargs;
        uf.body callee no_item 0 0)

(* A user function is compiled once per program, on its first call
   site; a recursive call finds the entry being compiled. *)
and compile_fn cx fd =
  match Hashtbl.find_opt cx.fns fd.fname with
  | Some uf -> uf
  | None ->
    let layout = { nvars = 0; ncells = 0 } in
    let uf = { body = (fun _ _ _ _ -> []); fn_layout = layout } in
    Hashtbl.replace cx.fns fd.fname uf;
    let sc = { locals = Smap.empty; keys = []; layout } in
    let sc = List.fold_left (fun sc (p, _) -> snd (bind sc p)) sc fd.params in
    uf.body <- compile cx sc fd.body;
    uf

(* An IFP body is a loop over rounds with the recursion variable as its
   binder: its invariants get cells, reset when the fixpoint is entered
   and kept across its rounds (an enclosing loop's [invariants] never
   looks inside a fixpoint). Figure 5's verdict is taken once per
   compile, on the first [Auto] entry. *)
and compile_ifp cx sc var seed body accum : code =
  let t = cx.ev in
  let cseed = compile cx sc seed in
  let (i, inner) = bind sc var in
  let (keys, cells) = hoist cx sc (invariants ~binders:[ var ] body) in
  let cbody = compile cx { inner with keys } body in
  let weight =
    match accum with
    | Some { weight = Some we; _ } -> Some (compile cx { sc with keys = [] } we)
    | _ -> None
  in
  let figure5 =
    lazy (Distributivity.check ~functions:t.functions ~stratified:t.stratified var body)
  in
  fun fr it p s ->
    let seed_v = cseed fr it p s in
    reset fr cells;
    let site () = ifp_site t sc.locals fr it var seed_v body accum in
    match match t.ifp_handler with None -> None | Some h -> h (site ()) with
    | Some result -> result
    | None -> (
      let body_fn input =
        fr.vars.(i) <- input;
        cbody fr it p s
      in
      let use_delta =
        match t.strategy with
        | Naive -> false
        | Delta -> true
        | Auto -> (
          Lazy.force figure5
          || match t.delta_licence with Some licensed -> licensed (site ()) | None -> false)
      in
      match accum with
      | Some a -> run_semiring t a ~use_delta ~body_fn ~weight:(Option.map (weight_fn fr) weight) seed_v
      | None ->
        t.last_ifp_used_delta <- Some use_delta;
        if use_delta then
          Fixpoint.delta ~max_iterations:t.max_iterations ~stats:t.stats ~body:body_fn
            ~seed:seed_v ()
        else
          Fixpoint.naive ~max_iterations:t.max_iterations ~stats:t.stats ~body:body_fn
            ~seed:seed_v ())

(* The weight expression of [min]/[max] is evaluated once per produced
   node, with that node as the context item (the recursion variable is
   not in scope). It must yield a single number. *)
and weight_fn fr (we : code) n =
  match Item.atomize (we fr (Item.N n) 1 1) with
  | [ atom ] -> Atom.to_number atom
  | [] -> err "accumulate by: the weight expression yielded ()"
  | _ -> err "accumulate by: the weight expression is not a singleton"

(* [accumulate by …]. [bool] is the plain loop, [Fixpoint.naive] or
   [Fixpoint.delta] as the licence says, with every result node marked;
   the other kinds run the semiring kernel, which feeds the body one
   frontier node at a time so each produced node's annotation extends
   its source's via ⊗, re-feeding only strict improvements. *)
and run_semiring t (a : Ast.accum) ~use_delta ~body_fn ~weight seed_v =
  match a.kind with
  | Semiring.Bool ->
    let loop = if use_delta then Fixpoint.delta else Fixpoint.naive in
    let result = loop ~max_iterations:t.max_iterations ~stats:t.stats ~body:body_fn ~seed:seed_v () in
    t.last_ifp_used_delta <- Some use_delta;
    t.last_annotations <-
      Some
        ( Semiring.Bool,
          (* the loop's accumulator admits nodes only *)
          List.filter_map
            (function Item.N n -> Some (n, Semiring.Mark) | Item.A _ -> None)
            result );
    result
  | kind ->
    let record ~fed ~produced ~result_size =
      Stats.record_iteration t.stats ~fed ~produced ~result_size
    in
    Stats.start_run t.stats;
    let acc =
      match
        Kernel.run_annotated ~max_iterations:t.max_iterations ~kind ~record
          ~step:(fun n -> body_fn [ Item.N n ])
          ~weight ~seed:seed_v ()
      with
      | acc -> acc
      | exception Kernel.Diverged i -> raise (Fixpoint.Diverged i)
    in
    t.last_ifp_used_delta <- Some true;
    t.last_annotations <- Some (kind, Kernel.Annot_acc.entries acc);
    Kernel.Annot_acc.to_seq acc

(* ------------------------------------------------------------------ *)
(* Program interface                                                   *)
(* ------------------------------------------------------------------ *)

let compiler t =
  { ev = t; fns = Hashtbl.create 8;
    unfocused =
      { Builtins.context_item = None; context_pos = 0; context_size = 0;
        registry = t.registry } }

(* Compile [e] as one activation, then run it on a fresh frame. *)
let run cx ?(vars = []) ?context e =
  let sc = { locals = Smap.empty; keys = []; layout = { nvars = 0; ncells = 0 } } in
  let sc = List.fold_left (fun sc (v, _) -> snd (bind sc v)) sc vars in
  let code = compile cx sc e in
  let fr = new_frame sc.layout 0 in
  List.iter (fun (v, value) -> fr.vars.(Smap.find v sc.locals) <- value) vars;
  match context with None -> code fr no_item 0 0 | Some it -> code fr it 1 1

let load_prolog_with cx (p : program) =
  let t = cx.ev in
  List.iter (fun fd -> Hashtbl.replace t.functions fd.fname fd) p.functions;
  List.iter (fun (v, e) -> (global t v) := Some (run cx e)) p.variables

let load_prolog t p = load_prolog_with (compiler t) p

let run_program t (p : program) =
  let cx = compiler t in
  load_prolog_with cx p;
  run cx p.main

let eval_expr t ?vars ?context e = run (compiler t) ?vars ?context e

let run_string t src = run_program t (Parser.parse_program src)
