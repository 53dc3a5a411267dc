type t = N of Node.t | A of Atom.t

type seq = t list

let node n = N n
let atom a = A a

let as_node_seq who s =
  List.map
    (function
      | N n -> n
      | A a ->
        Atom.type_error "%s: expected a sequence of nodes, got atom %s" who
          (Atom.to_string a))
    s

(* One pass over a node list: its length and whether ids are strictly
   increasing (strictly sorted = already in doc order and duplicate
   free). *)
let scan_nodes ns =
  let rec go len prev sorted = function
    | [] -> (sorted, len)
    | (n : Node.t) :: rest ->
      go (len + 1) n.Node.id (sorted && n.Node.id > prev) rest
  in
  go 0 min_int true ns

(* The sort behind {!sort_uniq_nodes} and {!ddo} when the ordering
   scan fails: [ns] sorted, without duplicates, each node passed
   through [f] as it is listed. *)
let sort_dedup f ns =
  incr Counters.fallback_sorts;
  let[@tail_mod_cons] rec dedup = function
    | (a : Node.t) :: ((b : Node.t) :: _ as rest) when a.Node.id = b.Node.id -> dedup rest
    | a :: rest -> f a :: dedup rest
    | [] -> []
  in
  dedup (List.sort Node.compare_doc_order ns)

(* One ordering pass, whatever it finds, counts as one merge. *)
let count_pass len =
  incr Counters.merges;
  Counters.merged_items := !Counters.merged_items + len

let sort_uniq_nodes ns =
  let (sorted, len) = scan_nodes ns in
  count_pass len;
  if sorted then ns else sort_dedup Fun.id ns

(* Linear merges over sorted, duplicate-free runs. All tail-recursive:
   fixpoint accumulators get long. *)
let rec merge_union acc a b =
  match (a, b) with
  | ([], rest) | (rest, []) -> List.rev_append acc rest
  | ((x : Node.t) :: a', (y : Node.t) :: b') ->
    if x.Node.id < y.Node.id then merge_union (x :: acc) a' b
    else if x.Node.id > y.Node.id then merge_union (y :: acc) a b'
    else merge_union (x :: acc) a' b'

let rec merge_except acc a b =
  match a with
  | [] -> List.rev acc
  | (x : Node.t) :: a' -> (
    match b with
    | [] -> List.rev_append acc a
    | (y : Node.t) :: b' ->
      if x.Node.id < y.Node.id then merge_except (x :: acc) a' b
      else if x.Node.id > y.Node.id then merge_except acc a b'
      else merge_except acc a' b')

let rec merge_intersect acc a b =
  match (a, b) with
  | ([], _) | (_, []) -> List.rev acc
  | ((x : Node.t) :: a', (y : Node.t) :: b') ->
    if x.Node.id < y.Node.id then merge_intersect acc a' b
    else if x.Node.id > y.Node.id then merge_intersect acc a b'
    else merge_intersect (x :: acc) a' b'

let union_nodes na nb = merge_union [] (sort_uniq_nodes na) (sort_uniq_nodes nb)
let except_nodes na nb = merge_except [] (sort_uniq_nodes na) (sort_uniq_nodes nb)

let intersect_nodes na nb =
  merge_intersect [] (sort_uniq_nodes na) (sort_uniq_nodes nb)

(* [ddo_as who s]: [s] itself when the scan finds it strictly in
   document order, which is the common case, so nothing is copied. *)
let ddo_as who s =
  let rec scan len prev = function
    | [] -> len
    | N (n : Node.t) :: rest when n.Node.id > prev -> scan (len + 1) n.Node.id rest
    | _ -> -1
  in
  match scan 0 min_int s with
  | -1 ->
    let ns = as_node_seq who s in
    count_pass (List.length ns);
    sort_dedup node ns
  | len ->
    count_pass len;
    s

let ddo s = ddo_as "fs:ddo" s

let union a b =
  let na = as_node_seq "union" a and nb = as_node_seq "union" b in
  List.map node (union_nodes na nb)

let except a b =
  let na = as_node_seq "except" a and nb = as_node_seq "except" b in
  List.map node (except_nodes na nb)

let intersect a b =
  let na = as_node_seq "intersect" a and nb = as_node_seq "intersect" b in
  List.map node (intersect_nodes na nb)

(* Set-equality s= over general sequences: split into node part (by
   identity) and atom part (by value).

   [Atom.equal_value] is not transitive across numeric strings
   (Int 1 ~ Str "1" and Int 1 ~ Str "01", yet Str "1" <> Str "01"), so a
   key-based comparison is only sound when numbers and numeric-looking
   strings don't both occur. We detect that case and keep the original
   pairwise comparison for it; everything else goes through an O(n log n)
   sort of comparison keys. *)
module Atom_set = struct
  let mem a l = List.exists (Atom.equal_value a) l

  let of_seq s =
    List.fold_left (fun acc a -> if mem a acc then acc else a :: acc) [] s

  let equal_pairwise a b =
    let a = of_seq a and b = of_seq b in
    List.length a = List.length b && List.for_all (fun x -> mem x b) a

  type key = KB of bool | KN of float | KS of string

  let key = function
    | Atom.Bool b -> KB b
    | Atom.Int i -> KN (float_of_int i)
    | Atom.Dbl f -> KN f
    | Atom.Str s -> KS s

  (* Stdlib.compare gives nan = nan, matching Atom.compare_value. *)
  let compare_key (x : key) (y : key) = Stdlib.compare x y

  let numeric_crossover s =
    let has_num = ref false and has_numstr = ref false in
    List.iter
      (function
        | Atom.Int _ | Atom.Dbl _ -> has_num := true
        | Atom.Str str ->
          if float_of_string_opt (String.trim str) <> None then
            has_numstr := true
        | Atom.Bool _ -> ())
      s;
    !has_num && !has_numstr

  let rec equal_keys a b =
    match (a, b) with
    | ([], []) -> true
    | (x :: a', y :: b') -> compare_key x y = 0 && equal_keys a' b'
    | _ -> false

  let equal a b =
    if numeric_crossover (List.rev_append a b) then equal_pairwise a b
    else
      equal_keys
        (List.sort_uniq compare_key (List.map key a))
        (List.sort_uniq compare_key (List.map key b))
end

let set_equal a b =
  let nodes_of = List.filter_map (function N n -> Some n | A _ -> None) in
  let atoms_of = List.filter_map (function A a -> Some a | N _ -> None) in
  Node_set.equal (Node_set.of_nodes (nodes_of a)) (Node_set.of_nodes (nodes_of b))
  && Atom_set.equal (atoms_of a) (atoms_of b)

let effective_boolean = function
  | [] -> false
  | [ A a ] -> Atom.to_bool a
  | N _ :: _ -> true
  | _ ->
    Atom.type_error
      "effective boolean value undefined for a multi-atom sequence"

let atomize s =
  List.map
    (function A a -> a | N n -> Atom.Str (Node.string_value n))
    s

let string_of_item = function
  | A a -> Atom.to_string a
  | N n -> Node.string_value n

let rec deep_equal_node (a : Node.t) (b : Node.t) =
  a.Node.kind = b.Node.kind
  && (match (a.Node.name, b.Node.name) with
     | (None, None) -> true
     | (Some x, Some y) -> Qname.equal x y
     | _ -> false)
  && (match a.Node.kind with
     | Node.Text | Node.Comment | Node.Pi | Node.Attribute ->
       String.equal a.Node.content b.Node.content
     | Node.Element | Node.Document -> true)
  && Array.length a.Node.attributes = Array.length b.Node.attributes
  && List.for_all
       (fun (x : Node.t) ->
         Array.exists
           (fun (y : Node.t) ->
             Node.name x = Node.name y
             && String.equal x.Node.content y.Node.content)
           b.Node.attributes)
       (Array.to_list a.Node.attributes)
  && Array.length a.Node.children = Array.length b.Node.children
  && List.for_all2 deep_equal_node
       (Array.to_list a.Node.children)
       (Array.to_list b.Node.children)

let deep_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         match (x, y) with
         | (A u, A v) -> Atom.equal_value u v
         | (N u, N v) -> deep_equal_node u v
         | _ -> false)
       a b

let pp ppf = function
  | N n -> Node.pp ppf n
  | A a -> Atom.pp ppf a

let pp_seq ppf s =
  Format.fprintf ppf "(@[%a@])"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ") pp)
    s
