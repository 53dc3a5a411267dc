type t =
  | Child
  | Descendant
  | Descendant_or_self
  | Parent
  | Ancestor
  | Ancestor_or_self
  | Self
  | Following_sibling
  | Preceding_sibling
  | Following
  | Preceding
  | Attribute

type test =
  | Name of string
  | Kind_node
  | Kind_text
  | Kind_comment
  | Kind_pi
  | Kind_element of string option
  | Kind_attribute of string option
  | Kind_document

let axis_of_string = function
  | "child" -> Some Child
  | "descendant" -> Some Descendant
  | "descendant-or-self" -> Some Descendant_or_self
  | "parent" -> Some Parent
  | "ancestor" -> Some Ancestor
  | "ancestor-or-self" -> Some Ancestor_or_self
  | "self" -> Some Self
  | "following-sibling" -> Some Following_sibling
  | "preceding-sibling" -> Some Preceding_sibling
  | "following" -> Some Following
  | "preceding" -> Some Preceding
  | "attribute" -> Some Attribute
  | _ -> None

let axis_to_string = function
  | Child -> "child"
  | Descendant -> "descendant"
  | Descendant_or_self -> "descendant-or-self"
  | Parent -> "parent"
  | Ancestor -> "ancestor"
  | Ancestor_or_self -> "ancestor-or-self"
  | Self -> "self"
  | Following_sibling -> "following-sibling"
  | Preceding_sibling -> "preceding-sibling"
  | Following -> "following"
  | Preceding -> "preceding"
  | Attribute -> "attribute"

let is_reverse = function
  | Parent | Ancestor | Ancestor_or_self | Preceding | Preceding_sibling ->
    true
  | Child | Descendant | Descendant_or_self | Self | Following_sibling
  | Following | Attribute ->
    false

let name_matches pat n =
  String.equal pat "*" || String.equal pat (Node.name n)

let matches axis test (n : Node.t) =
  match test with
  | Name pat -> (
    (* A bare name test selects the principal node kind of the axis:
       attributes on the attribute axis, elements elsewhere. *)
    match axis with
    | Attribute -> n.Node.kind = Node.Attribute && name_matches pat n
    | _ -> n.Node.kind = Node.Element && name_matches pat n)
  | Kind_node -> true
  | Kind_text -> n.Node.kind = Node.Text
  | Kind_comment -> n.Node.kind = Node.Comment
  | Kind_pi -> n.Node.kind = Node.Pi
  | Kind_element pat ->
    n.Node.kind = Node.Element
    && (match pat with None -> true | Some p -> name_matches p n)
  | Kind_attribute pat ->
    n.Node.kind = Node.Attribute
    && (match pat with None -> true | Some p -> name_matches p n)
  | Kind_document -> n.Node.kind = Node.Document

let descendants_acc acc n =
  let rec go acc (n : Node.t) =
    Array.fold_left (fun acc c -> go (c :: acc) c) acc n.Node.children
  in
  List.rev (go (List.rev acc) n)

let rec ancestors (n : Node.t) =
  match n.Node.parent with None -> [] | Some p -> p :: ancestors p

let siblings_after (n : Node.t) =
  match n.Node.parent with
  | None -> []
  | Some p ->
    let sibs = Array.to_list p.Node.children in
    let rec drop = function
      | [] -> []
      | s :: rest -> if Node.equal s n then rest else drop rest
    in
    drop sibs

(* An attribute is not among its element's children, so it has no
   siblings on either side. *)
let siblings_before (n : Node.t) =
  match n.Node.parent with
  | None -> []
  | Some p ->
    let rec take acc = function
      | [] -> []
      | s :: rest ->
        if Node.equal s n then List.rev acc else take (s :: acc) rest
    in
    take [] (Array.to_list p.Node.children)

let nodes axis (n : Node.t) =
  match axis with
  | Self -> [ n ]
  | Child -> Array.to_list n.Node.children
  | Attribute -> Array.to_list n.Node.attributes
  | Descendant -> descendants_acc [] n
  | Descendant_or_self -> n :: descendants_acc [] n
  | Parent -> ( match n.Node.parent with None -> [] | Some p -> [ p ])
  | Ancestor -> ancestors n
  | Ancestor_or_self -> n :: ancestors n
  | Following_sibling -> siblings_after n
  | Preceding_sibling -> List.rev (siblings_before n)
  | Following ->
    (* Nodes after n in document order, excluding descendants: the
       descendant-or-self closure of the following siblings of n and of
       each of its ancestors. *)
    List.concat_map
      (fun s ->
        List.concat_map (fun fs -> fs :: descendants_acc [] fs)
          (siblings_after s))
      (n :: ancestors n)
  | Preceding ->
    (* axis order = reverse document order *)
    let sources = n :: ancestors n in
    List.rev
      (List.concat_map
         (fun s ->
           List.concat_map (fun ps -> ps :: descendants_acc [] ps)
             (siblings_before s))
         (List.rev sources))

(* --- index-assisted steps ------------------------------------------ *)

(* [range arr lo hi] = (i, j) such that arr.(i..j-1) are exactly the
   entries with lo <= id <= hi ([arr] is sorted by id). *)
let range (arr : Node.t array) lo hi =
  let len = Array.length arr in
  let lower target =
    let l = ref 0 and r = ref len in
    while !l < !r do
      let m = (!l + !r) / 2 in
      if arr.(m).Node.id < target then l := m + 1 else r := m
    done;
    !l
  in
  (lower lo, lower (hi + 1))

(* The elements named [pat] in the subtree of [n] are [arr.(i..j-1)]
   of the per-document name index: a binary search for the id interval
   [(n.id), subtree_max_id n] — the subtree-containment pruning that
   keeps overlapping Δ subtrees from being re-walked. Only consulted
   for real documents (Document-rooted trees); ephemeral constructed
   fragments keep the plain walk, so no index is built for them. *)
let named_range ~or_self pat (n : Node.t) =
  match n.Node.kind with
  | Node.Element | Node.Document -> (
    let r = Node.root n in
    if r.Node.kind <> Node.Document then None
    else
      match Node.elements_by_name r pat with
      | None -> None
      | Some arr ->
        let lo = n.Node.id + (if or_self then 0 else 1) in
        let (i, j) = range arr lo (Node.subtree_max_id n) in
        Some (arr, i, j))
  | _ -> None

let slice (arr : Node.t array) i j =
  let rec collect k acc = if k < i then acc else collect (k - 1) (arr.(k) :: acc) in
  collect (j - 1) []

(* [arr.(i..j-1)] as the answer of an index-assisted step. *)
let indexed_hits arr i j =
  incr Counters.index_steps;
  Counters.index_nodes := !Counters.index_nodes + (j - i);
  slice arr i j

let is_child_of (n : Node.t) (c : Node.t) =
  match c.Node.parent with Some p -> p == n | None -> false

(* The entries of [arr] up to [i] that [test] selects on [axis], in
   array order, built from the back onto [acc]: one cons per hit. *)
let rec filter_array axis test (arr : Node.t array) i acc =
  if i < 0 then acc
  else
    let c = Array.unsafe_get arr i in
    filter_array axis test arr (i - 1) (if matches axis test c then c :: acc else acc)

let filter_all axis test (arr : Node.t array) =
  filter_array axis test arr (Array.length arr - 1) []

(* Whether a child step may look its name up in the index: a named
   test over more than eight children. Any other child step scans the
   array. *)
let indexed_child test (n : Node.t) =
  Array.length n.Node.children > 8
  &&
  match test with
  | Name pat | Kind_element (Some pat) -> not (String.equal pat "*")
  | _ -> false

let step axis test n =
  match (axis, test) with
  | ((Descendant | Descendant_or_self), (Name pat | Kind_element (Some pat)))
    when not (String.equal pat "*") -> (
    match named_range ~or_self:(axis = Descendant_or_self) pat n with
    | Some (arr, i, j) -> indexed_hits arr i j
    | None -> List.filter (matches axis test) (nodes axis n))
  | (Child, (Name pat | Kind_element (Some pat))) when indexed_child test n -> (
    (* Use the index for child::name only when it beats scanning the
       children: candidates are all same-named elements in the subtree,
       so compare counts before materializing. *)
    match named_range ~or_self:false pat n with
    | Some (arr, i, j) when j - i <= Array.length n.Node.children ->
      List.filter (is_child_of n) (indexed_hits arr i j)
    | _ -> filter_all axis test n.Node.children)
  | (Child, _) -> filter_all axis test n.Node.children
  | (Attribute, _) -> filter_all axis test n.Node.attributes
  | _ -> List.filter (matches axis test) (nodes axis n)

(* A child or attribute step that {!step} answers by scanning is
   scanned in place below, without building its list. *)
let rec exists_in axis test arr i f =
  i < Array.length arr
  &&
  let c = Array.unsafe_get arr i in
  (matches axis test c && f c) || exists_in axis test arr (i + 1) f

let exists_step axis test n f =
  match axis with
  | Attribute -> exists_in axis test n.Node.attributes 0 f
  | Child when not (indexed_child test n) -> exists_in axis test n.Node.children 0 f
  | _ -> List.exists f (step axis test n)

let rec fold_in axis test arr i f x acc =
  if i = Array.length arr then acc
  else
    let c = Array.unsafe_get arr i in
    fold_in axis test arr (i + 1) f x (if matches axis test c then f x acc c else acc)

let fold_step axis test n f x acc =
  match axis with
  | Attribute -> fold_in axis test n.Node.attributes 0 f x acc
  | Child when not (indexed_child test n) -> fold_in axis test n.Node.children 0 f x acc
  | _ -> List.fold_left (f x) acc (step axis test n)

(* [E[p = v]] on [child::E] or [descendant::E] from [n], answered from
   the value index when [v] atomizes to strings only: for each distinct
   value, its bucket's hits inside [n]'s subtree (and, for [child],
   under [n] itself), in document order. [operand] is forced only when
   the step has a candidate. *)
let value_probe axis pat path (n : Node.t) ~(operand : unit -> Atom.t list) =
  match (axis, named_range ~or_self:false pat n) with
  | ((Child | Descendant), Some (_, i, j))
    when j > i
         && (axis = Descendant
            || Array.exists (matches Child (Name pat)) n.Node.children) -> (
    let strings =
      List.fold_left
        (fun acc a ->
          match (acc, a) with
          | (Some l, Atom.Str s) -> Some (s :: l)
          | _ -> None)
        (Some []) (operand ())
    in
    match (strings, Node.elements_by_value n pat path) with
    | (Some values, Some tbl) ->
      incr Counters.value_probes;
      let hi = Node.subtree_max_id n in
      let inside v =
        match Hashtbl.find_opt tbl v with
        | None -> []
        | Some bucket ->
          let (i, j) = range bucket (n.Node.id + 1) hi in
          let hits = slice bucket i j in
          if axis = Child then List.filter (is_child_of n) hits else hits
      in
      Some
        (match List.sort_uniq String.compare values with
        | [ v ] -> inside v
        | vs -> List.sort_uniq Node.compare_doc_order (List.concat_map inside vs))
    | _ -> None)
  | _ -> None

(* [n]'s slot in its parent's children array, found by a binary search
   on ids (children are in document order). An attribute is in no
   slot. *)
let child_slot (n : Node.t) =
  match n.Node.parent with
  | None -> None
  | Some p ->
    let kids = p.Node.children in
    let l = ref 0 and r = ref (Array.length kids) in
    while !l < !r do
      let m = (!l + !r) / 2 in
      if kids.(m).Node.id < n.Node.id then l := m + 1 else r := m
    done;
    if !l < Array.length kids && kids.(!l) == n then Some (kids, !l) else None

let nth axis test (n : Node.t) k =
  let rec scan kids i dir left =
    if i < 0 || i >= Array.length kids then None
    else
      let c = kids.(i) in
      if not (matches axis test c) then scan kids (i + dir) dir left
      else if left = 1 then Some c
      else scan kids (i + dir) dir (left - 1)
  in
  if k < 1 then None
  else
    match axis with
    | Child -> scan n.Node.children 0 1 k
    | Following_sibling -> (
      match child_slot n with
      | Some (kids, i) -> scan kids (i + 1) 1 k
      | None -> None)
    | Preceding_sibling -> (
      match child_slot n with
      | Some (kids, i) -> scan kids (i - 1) (-1) k
      | None -> None)
    | _ -> invalid_arg "Axis.nth: only the child and sibling axes"

let pp_test ppf = function
  | Name s -> Format.pp_print_string ppf s
  | Kind_node -> Format.pp_print_string ppf "node()"
  | Kind_text -> Format.pp_print_string ppf "text()"
  | Kind_comment -> Format.pp_print_string ppf "comment()"
  | Kind_pi -> Format.pp_print_string ppf "processing-instruction()"
  | Kind_element None -> Format.pp_print_string ppf "element()"
  | Kind_element (Some s) -> Format.fprintf ppf "element(%s)" s
  | Kind_attribute None -> Format.pp_print_string ppf "attribute()"
  | Kind_attribute (Some s) -> Format.fprintf ppf "attribute(%s)" s
  | Kind_document -> Format.pp_print_string ppf "document-node()"
