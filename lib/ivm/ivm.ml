module Xdm = Fixq_xdm
module Lang = Fixq_lang
module Analyze = Fixq_analysis.Analyze
module Node = Xdm.Node
module Patch = Xdm.Patch

type state = {
  source : string;
  stratified : bool;
  max_iterations : int;
  seed_names : string list;
  seed_nodes : Node.t array;  (** in document order *)
}

let source st = st.source
let stratified st = st.stratified
let max_iterations st = st.max_iterations

let adopt ~registry ~source ~program ~stratified ~max_iterations =
  match (program.Lang.Ast.main, Analyze.ivm_eligibility program) with
  | (Lang.Ast.Ifp { seed; _ }, Analyze.Ivm_eligible seed_names) -> (
    match
      let ev = Lang.Eval.create ~registry ~max_iterations ~stratified () in
      Array.of_list
        (Xdm.Item.as_node_seq "ivm seed" (Lang.Eval.eval_expr ev seed))
    with
    | seed_nodes ->
      Array.stable_sort Node.compare_doc_order seed_nodes;
      Some { source; stratified; max_iterations; seed_names; seed_nodes }
    | exception _ -> None)
  | _ -> None

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
   the eligibility grammar every fed node is a descendant-or-self of a
   seed node and the body reads nothing else. If the edit neither
   inserted nor removed a node carrying a name the seed tests, the seed
   set is what it was; if no seed node is an ancestor-or-self of the
   edit point, no fed node's subtree changed: the result, and every
   node's serialization, is what it was. The names are checked first:
   they also keep every seed node in the tree, so the seed is still
   sorted for [on_spine]. *)
let untouched st (delta : Patch.delta) =
  not
    (List.exists (carries st.seed_names) delta.Patch.inserted
    || List.exists (carries st.seed_names) delta.Patch.removed
    || on_spine st.seed_nodes delta.Patch.edit_parent)
