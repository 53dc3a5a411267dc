module Xdm = Fixq_xdm
module Lang = Fixq_lang
module Analyze = Fixq_analysis.Analyze
module Node = Xdm.Node
module Item = Xdm.Item
module Patch = Xdm.Patch
module Accumulator = Xdm.Accumulator

type state = {
  source : string;
  program : Lang.Ast.program;
  var : string;
  seed_expr : Lang.Ast.expr;
  body : Lang.Ast.expr;
  cls : Analyze.ivm_class;
  stratified : bool;
  max_iterations : int;
  nodes : Node.t list;
  seed_nodes : Node.t array;  (** in document order *)
  local_body : bool;
  seed_names : string list option;
}

type outcome =
  | Maintained of {
      state : state;
      escaped : string;
      delta_count : int;
      rounds : int;
    }
  | Untouched
  | Dropped of string

let source st = st.source
let stratified st = st.stratified
let max_iterations st = st.max_iterations
let nodes st = st.nodes

let node_list items =
  List.filter_map (function Item.N n -> Some n | Item.A _ -> None) items

let all_nodes items =
  List.for_all (function Item.N _ -> true | Item.A _ -> false) items

let doc_order nodes =
  let arr = Array.of_list nodes in
  Array.stable_sort Node.compare_doc_order arr;
  arr

(* Whether the body reads only the recursion variable and its own lets:
   no doc(…) call, no global, nothing outside the maintenance grammar
   (which [ivm_eligibility] already keeps to downward steps). *)
let rec local ~bound (e : Lang.Ast.expr) =
  let open Lang.Ast in
  match e with
  | Var v -> List.mem v bound
  | Empty_seq | Context_item | Literal _ | Axis_step _ -> true
  | Path (a, b) | Sequence (a, b) | Union (a, b) | Intersect (a, b)
  | Filter (a, b) | And (a, b) | Or (a, b) | Gen_cmp (_, a, b) | Val_cmp (_, a, b) ->
    local ~bound a && local ~bound b
  | Let { var; value; body } -> local ~bound value && local ~bound:(var :: bound) body
  | _ -> false

(* The element and attribute names a seed tests, when its node set is
   fixed by them alone: named steps under one doc("literal"), and
   predicates that compare attribute values with literals or test that
   a named path exists — no wildcard, no kind test, no variable, no
   position. Every seed node is then the document node or carries one
   of these names. [None] for any other seed. *)
let seed_names seed =
  let open Lang.Ast in
  let names = ref [] and uris = ref [] in
  let named = function
    | { axis = Axis.(Child | Descendant | Descendant_or_self | Self | Attribute);
        test = Axis.Name nm }
      when not (String.contains nm '*') ->
      if not (List.mem nm !names) then names := nm :: !names;
      true
    | _ -> false
  in
  let rec sel = function
    | Call ("doc", [ Literal (Xdm.Atom.Str u) ]) ->
      if not (List.mem u !uris) then uris := u :: !uris;
      true
    | Axis_step s -> named s
    | Path (a, b) | Union (a, b) | Intersect (a, b) | Sequence (a, b) -> sel a && sel b
    | Filter (a, p) -> sel a && pred p
    | _ -> false
  and pred = function
    | And (a, b) | Or (a, b) -> pred a && pred b
    | Gen_cmp (_, a, b) | Val_cmp (_, a, b) -> operand a && operand b
    | e -> sel e
  and operand = function
    | Literal _ -> true
    | Axis_step ({ axis = Axis.Attribute; _ } as s) -> named s
    | Path (a, b) -> sel a && operand b
    | _ -> false
  in
  (* one document, so the seed's id order survives renumbering others *)
  if sel seed && List.length !uris = 1 then Some !names else None

let adopt ~registry ~source ~program ~stratified ~max_iterations result =
  match program.Lang.Ast.main with
  | Lang.Ast.Ifp { var; seed; body; accum = None } when all_nodes result -> (
    match Analyze.ivm_eligibility ~stratified program with
    | Analyze.Ivm_ineligible _ -> None
    | cls -> (
      (* The pre-edit seed is needed at maintenance time to tell fresh
         seed nodes from re-fed ones, and it cannot be recovered once
         the registry holds the patched tree — capture it now. *)
      match
        let ev =
          Lang.Eval.create ~registry ~max_iterations ~stratified ()
        in
        Lang.Eval.load_prolog ev program;
        Item.as_node_seq "ivm seed" (Lang.Eval.eval_expr ev seed)
      with
      | seed_nodes ->
        Some
          { source; program; var; seed_expr = seed; body; cls; stratified;
            max_iterations; nodes = node_list result;
            seed_nodes = doc_order seed_nodes;
            local_body = local ~bound:[ var ] body;
            seed_names = seed_names seed }
      | exception _ -> None))
  | _ -> None

exception Maintenance_failed of string

(* Differential re-evaluation (Alvarez-Picallo et al.: the derivative of
   a fixpoint is a fixpoint): re-enter the delta loop from the edit
   frontier instead of re-running the whole fixpoint.

   For eligible (downward) bodies the producers whose output a patch can
   change are exactly the ancestors of the edit point, so the frontier
   is [fresh seed nodes ∪ (ancestor spine ∩ previously-fed nodes)]. That
   is small only when the seed lies below the edit: a seed on the spine
   (such as the document element) puts the seed itself in the frontier,
   and the loop re-runs the whole query. The cached result survives the patch
   because the edit is in place: its nodes keep their identity, and only
   those in the deleted subtrees are dropped (which, for filter-free
   downward bodies, removes exactly the derivations the deleted subtree
   supported). New derivations are absorbed into a rebuilt accumulator
   by the standard [∆ ← body(∆) except res] loop. *)
let differentiate ~registry st (delta : Patch.delta) =
  let gone : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace gone id ()) delta.Patch.deleted;
  let survivors ns = List.filter (fun n -> not (Hashtbl.mem gone n.Node.id)) ns in
  let old_result = survivors st.nodes in
  let old_seed = survivors (Array.to_list st.seed_nodes) in
  let acc = Accumulator.create () in
  ignore
    (Accumulator.absorb acc ~who:"ivm survivors"
       (List.map (fun n -> Item.N n) old_result));
  let ev =
    Lang.Eval.create ~registry ~max_iterations:st.max_iterations
      ~stratified:st.stratified ()
  in
  Lang.Eval.load_prolog ev st.program;
  let seed' =
    Item.as_node_seq "ivm seed" (Lang.Eval.eval_expr ev st.seed_expr)
  in
  let fed : (int, unit) Hashtbl.t = Hashtbl.create 1024 in
  List.iter (fun n -> Hashtbl.replace fed n.Node.id ()) old_seed;
  List.iter (fun n -> Hashtbl.replace fed n.Node.id ()) old_result;
  let fresh_seed =
    List.filter (fun n -> not (Hashtbl.mem fed n.Node.id)) seed'
  in
  let spine =
    let rec up n acc =
      let acc = if Hashtbl.mem fed n.Node.id then n :: acc else acc in
      match Node.parent n with None -> acc | Some q -> up q acc
    in
    up delta.Patch.edit_parent []
  in
  let frontier =
    Item.ddo (List.map (fun n -> Item.N n) (fresh_seed @ spine))
  in
  let rounds = ref 0 in
  let total_fresh = ref 0 in
  (* The first round feeds the frontier. Re-running the body on it
     does not revalidate a constant part of the body, such as a
     doc("…") read in a predicate, which may flip on old nodes that no
     frontier re-feeds: [maintain] brings only local bodies here. *)
  let rec loop delta_in =
    incr rounds;
    if !rounds > st.max_iterations then
      raise
        (Maintenance_failed
           (Printf.sprintf "maintenance exceeded %d iterations"
              st.max_iterations));
    let out = Lang.Eval.eval_expr ev ~vars:[ (st.var, delta_in) ] st.body in
    let fresh, fresh_n, _ = Accumulator.absorb acc ~who:"ivm body" out in
    total_fresh := !total_fresh + fresh_n;
    if fresh_n > 0 then loop fresh
  in
  loop frontier;
  let dropped = List.length st.nodes - List.length old_result in
  Maintained
    { state = { st with nodes = Accumulator.to_nodes acc; seed_nodes = doc_order seed' };
      escaped = Xdm.Serializer.seq_to_json (Accumulator.to_seq acc);
      delta_count = !total_fresh + dropped; rounds = !rounds }

(* Whether an element or attribute in the subtree of [n] carries one of
   [names]. *)
let rec carries names (n : Node.t) =
  (n.Node.kind = Node.Element && List.mem (Node.name n) names)
  || Array.exists (fun a -> List.mem (Node.name a) names) n.Node.attributes
  || Array.exists (carries names) n.Node.children

(* The slot of the first seed node at or after [id], by binary search. *)
let rec lower (seed : Node.t array) id l r =
  if l >= r then l
  else
    let m = (l + r) / 2 in
    if seed.(m).Node.id < id then lower seed id (m + 1) r else lower seed id l m

(* Whether a seed node is [n] or an ancestor of it: a binary search by
   id for each node up the spine, since the seed stays in document
   order across renumbering. *)
let rec on_spine seed (n : Node.t) =
  let i = lower seed n.Node.id 0 (Array.length seed) in
  (i < Array.length seed && seed.(i) == n)
  || match Node.parent n with Some p -> on_spine seed p | None -> false

(* The derivative of a fixpoint over an unchanged input is zero. Under
   the downward grammar every fed node is a descendant-or-self of a
   seed node. If the body reads only its variable, the seed set is fixed
   by names the edit neither inserted nor removed, and no seed node is
   an ancestor-or-self of the edit point, then no fed node's subtree
   changed and the seed did not change: the result, and every node's
   serialization, is what it was. The names are checked first: they
   also keep every seed node in the tree, so the seed is still sorted
   for [on_spine]. *)
let untouched st (delta : Patch.delta) =
  st.local_body
  && (match st.seed_names with
     | Some names ->
       not
         (List.exists (carries names) delta.Patch.inserted
         || List.exists (carries names) delta.Patch.removed)
     | None -> false)
  && not (on_spine st.seed_nodes delta.Patch.edit_parent)

let maintain ~registry ~op delta st =
  if untouched st delta then Untouched
  else
  match (st.cls, op) with
  | (Analyze.Ivm_ineligible r, _) -> Dropped r
  | (Analyze.Ivm_insert_only, Patch.(Delete _ | Replace _ | Set_text _)) ->
    Dropped "insert-only eligibility: deletions fall back to recompute"
  | _ when not st.local_body ->
    Dropped "the body reads outside its variable"
  | ((Analyze.Ivm_full | Analyze.Ivm_insert_only), _) -> (
    try differentiate ~registry st delta with
    | Maintenance_failed r -> Dropped r
    | Lang.Eval.Error r -> Dropped ("evaluation failed: " ^ r)
    | Xdm.Atom.Type_error r -> Dropped ("non-node result: " ^ r))
