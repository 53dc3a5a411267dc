module Node = Fixq_xdm.Node

type row = {
  pre : int;
  size : int;
  level : int;
  kind : Node.kind;
  name : string;
  value : string;
  node : Node.t;
}

type t = {
  rows : row array;
  by_id : (int, int) Hashtbl.t;
  steps : (int, Node.t list) Hashtbl.t;
}

let of_tree n =
  let root = Node.root n in
  let rows = ref [] in
  let by_id = Hashtbl.create 1024 in
  let count = ref 0 in
  (* Returns the subtree size of the visited node. *)
  let rec visit level (n : Node.t) =
    let pre = !count in
    incr count;
    let kids_size =
      List.fold_left (fun acc c -> acc + 1 + visit (level + 1) c) 0
        (Node.children n)
    in
    let r =
      { pre; size = kids_size; level; kind = n.Node.kind;
        name = Node.name n; value = n.Node.content; node = n }
    in
    rows := r :: !rows;
    Hashtbl.replace by_id n.Node.id pre;
    kids_size
  in
  ignore (visit 0 root);
  let arr = Array.make !count (List.hd !rows) in
  List.iter (fun r -> arr.(r.pre) <- r) !rows;
  { rows = arr; by_id; steps = Hashtbl.create 64 }

let row_of_node t (n : Node.t) =
  match Hashtbl.find_opt t.by_id n.Node.id with
  | Some pre -> t.rows.(pre)
  | None -> invalid_arg "Encoding.row_of_node: node not in this tree"

let row t pre = t.rows.(pre)
let size t = Array.length t.rows
let steps t = t.steps

(* Keyed by URI, so a patched document's encoding (new root id after
   renumbering) replaces the stale one. *)
let cache : (string, int * t) Hashtbl.t = Hashtbl.create 8

let of_tree_cached n =
  let root = Node.root n in
  match Node.uri root with
  | None -> of_tree root
  | Some key -> (
    match Hashtbl.find_opt cache key with
    | Some (id, t) when id = root.Node.id -> t
    | _ ->
      let t = of_tree root in
      Hashtbl.replace cache key (root.Node.id, t);
      t)

let cached_step_entries () =
  Hashtbl.fold (fun _ (_, t) acc -> acc + Hashtbl.length t.steps) cache 0
