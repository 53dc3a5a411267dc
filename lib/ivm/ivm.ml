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
  seed_nodes : Node.t list;
}

type outcome =
  | Maintained of {
      state : state;
      escaped : string;
      delta_count : int;
      rounds : int;
    }
  | Dropped of string

let source st = st.source
let stratified st = st.stratified
let max_iterations st = st.max_iterations
let nodes st = st.nodes

let node_list items =
  List.filter_map (function Item.N n -> Some n | Item.A _ -> None) items

let all_nodes items =
  List.for_all (function Item.N _ -> true | Item.A _ -> false) items

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
            max_iterations; nodes = node_list result; seed_nodes }
      | exception _ -> None))
  | _ -> None

exception Maintenance_failed of string

(* Differential re-evaluation (Alvarez-Picallo et al.: the derivative of
   a fixpoint is a fixpoint): re-enter the delta loop from the edit
   frontier instead of re-running the whole fixpoint.

   For eligible (downward) bodies the producers whose output a patch can
   change are exactly the ancestors of the edit point, so the frontier
   is [fresh seed nodes ∪ (ancestor spine ∩ previously-fed nodes)] —
   sub-linear in the document. The cached result survives the patch
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
  let old_seed = survivors st.seed_nodes in
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
  (* Always at least one round: even an empty frontier must revalidate
     doc("…")-constant parts of the body against the patched tree. *)
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
    { state = { st with nodes = Accumulator.to_nodes acc; seed_nodes = seed' };
      escaped = Xdm.Serializer.seq_to_json (Accumulator.to_seq acc);
      delta_count = !total_fresh + dropped; rounds = !rounds }

let maintain ~registry ~op delta st =
  match (st.cls, op) with
  | (Analyze.Ivm_ineligible r, _) -> Dropped r
  | (Analyze.Ivm_insert_only, Patch.(Delete _ | Replace _ | Set_text _)) ->
    Dropped "insert-only eligibility: deletions fall back to recompute"
  | ((Analyze.Ivm_full | Analyze.Ivm_insert_only), _) -> (
    try differentiate ~registry st delta with
    | Maintenance_failed r -> Dropped r
    | Lang.Eval.Error r -> Dropped ("evaluation failed: " ^ r)
    | Xdm.Atom.Type_error r -> Dropped ("non-node result: " ^ r))
