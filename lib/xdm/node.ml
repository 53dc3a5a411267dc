type kind = Document | Element | Attribute | Text | Comment | Pi

type key_step = Key_child of string | Key_attr of string | Key_text

type t = {
  mutable id : int;
  kind : kind;
  name : Qname.t option;
  mutable content : string;
  mutable parent : t option;
  mutable children : t array;
  mutable attributes : t array;
  mutable doc : doc option;
}

and doc = {
  mutable uri : string option;
  mutable id_attribute_names : string list;
  mutable id_index : (string, t) Hashtbl.t option;
  mutable idref_attribute_names : string list;
  mutable idref_index : (string, t list) Hashtbl.t option;
      (** ID token → IDREF-typed attribute nodes referring to it *)
  mutable name_index : name_index;
  mutable value_index : ((string * key_step list) * (string, t array) Hashtbl.t) list;
      (** (element name, key path) → string value → elements, newest first *)
}

and name_index =
  | Ni_unbuilt
  | Ni_disabled  (** preorder id validation failed; callers must walk *)
  | Ni_built of { buckets : (string, t array) Hashtbl.t; stale : string list }
      (** element name → elements with that name, in document order;
          the [stale] names' buckets are rebuilt on their next lookup *)

type spec =
  | E of string * (string * string) list * spec list
  | T of string
  | C of string
  | P of string * string

let counter = ref 0

let fresh_id () =
  incr counter;
  !counter

let allocated () = !counter

let new_doc ?uri ?(id_attrs = []) () =
  { uri; id_attribute_names = id_attrs; id_index = None;
    idref_attribute_names = []; idref_index = None; name_index = Ni_unbuilt;
    value_index = [] }

let mk kind name content =
  { id = fresh_id (); kind; name; content;
    parent = None; children = [||]; attributes = [||]; doc = None }

(* Ids are assigned in preorder: the node itself, then its attributes,
   then its children — this makes document order coincide with id
   order. *)
let rec build spec =
  match spec with
  | T s -> mk Text None s
  | C s -> mk Comment None s
  | P (target, s) -> mk Pi (Some (Qname.of_string target)) s
  | E (name, attrs, kids) ->
    let e = mk Element (Some (Qname.of_string name)) "" in
    let build_attr (an, av) =
      let a = mk Attribute (Some (Qname.of_string an)) av in
      a.parent <- Some e;
      a
    in
    e.attributes <- Array.of_list (List.map build_attr attrs);
    let build_kid k =
      let c = build k in
      c.parent <- Some e;
      c
    in
    e.children <- Array.of_list (List.map build_kid kids);
    e

let of_spec ?uri ?(id_attrs = []) spec =
  let d = mk Document None "" in
  d.doc <- Some (new_doc ?uri ~id_attrs ());
  let c = build spec in
  c.parent <- Some d;
  d.children <- [| c |];
  d

let rec deep_copy n =
  match n.kind with
  | Text -> mk Text None n.content
  | Comment -> mk Comment None n.content
  | Pi -> mk Pi n.name n.content
  | Attribute -> mk Attribute n.name n.content
  | Element ->
    let e = mk Element n.name "" in
    let copy_into c =
      let c' = deep_copy c in
      c'.parent <- Some e;
      c'
    in
    e.attributes <- Array.map copy_into n.attributes;
    e.children <- Array.map copy_into n.children;
    e
  | Document ->
    let d = mk Document None "" in
    d.doc <- Some (new_doc ());
    let copy_into c =
      let c' = deep_copy c in
      c'.parent <- Some d;
      c'
    in
    d.children <- Array.map copy_into n.children;
    d

let element name ~attrs kids =
  let e = mk Element (Some (Qname.of_string name)) "" in
  let attr (an, av) =
    let a = mk Attribute (Some (Qname.of_string an)) av in
    a.parent <- Some e;
    a
  in
  e.attributes <- Array.of_list (List.map attr attrs);
  (* XQuery element construction copies its content — unconditionally:
     content nodes were built before this element, so adopting them
     as-is would give children smaller ids than their parent and break
     the id-is-document-order invariant. A document child contributes
     its children (element content semantics). *)
  let adopt k =
    let k' = deep_copy k in
    k'.parent <- Some e;
    k'
  in
  let kids =
    List.concat_map
      (fun k ->
        match k.kind with Document -> Array.to_list k.children | _ -> [ k ])
      kids
  in
  e.children <- Array.of_list (List.map adopt kids);
  e

let text s = mk Text None s
let comment s = mk Comment None s
let attribute n v = mk Attribute (Some (Qname.of_string n)) v

let document kids =
  let d = mk Document None "" in
  d.doc <- Some (new_doc ());
  let adopt k =
    let k' = deep_copy k in
    k'.parent <- Some d;
    k'
  in
  let kids =
    List.concat_map
      (fun k ->
        match k.kind with Document -> Array.to_list k.children | _ -> [ k ])
      kids
  in
  d.children <- Array.of_list (List.map adopt kids);
  d

let rec root n = match n.parent with None -> n | Some p -> root p
let parent n = n.parent
let children n = Array.to_list n.children
let attributes n = Array.to_list n.attributes

(* A text-only element is most of a document's leaves: its one child's
   content is the answer, with no buffer. *)
let string_value n =
  match n.kind with
  | Text | Comment | Pi | Attribute -> n.content
  | Element | Document -> (
    match n.children with
    | [| { kind = Text; content; _ } |] -> content
    | [||] -> ""
    | _ ->
      let buf = Buffer.create 64 in
      let rec go n =
        match n.kind with
        | Text -> Buffer.add_string buf n.content
        | Element | Document -> Array.iter go n.children
        | Attribute | Comment | Pi -> ()
      in
      go n;
      Buffer.contents buf)

let name n = match n.name with None -> "" | Some q -> Qname.to_string q
let local_name n = match n.name with None -> "" | Some q -> Qname.local q

let doc_of_root r =
  match r.doc with
  | Some d -> d
  | None ->
    let d = new_doc () in
    r.doc <- Some d;
    d

let register_id_attribute r an =
  let r = root r in
  let d = doc_of_root r in
  if not (List.mem an d.id_attribute_names) then
    d.id_attribute_names <- an :: d.id_attribute_names;
  d.id_index <- None

let register_idref_attribute r an =
  let r = root r in
  let d = doc_of_root r in
  if not (List.mem an d.idref_attribute_names) then
    d.idref_attribute_names <- an :: d.idref_attribute_names;
  d.idref_index <- None

let rec iter_subtree f n =
  f n;
  Array.iter (iter_subtree f) n.children

let build_id_index r d =
  let tbl = Hashtbl.create 256 in
  let visit n =
    if n.kind = Element then
      Array.iter
        (fun a ->
          if List.mem (name a) d.id_attribute_names then
            if not (Hashtbl.mem tbl a.content) then
              Hashtbl.add tbl a.content n)
        n.attributes
  in
  iter_subtree visit r;
  d.id_index <- Some tbl;
  tbl

let lookup_id r v =
  let r = root r in
  let d = doc_of_root r in
  let tbl =
    match d.id_index with Some t -> t | None -> build_id_index r d
  in
  Hashtbl.find_opt tbl v

(* A string with no separator is one token (or none), given back as
   it is, not split into copies. *)
let id_tokens s =
  if String.exists (function ' ' | '\n' | '\t' -> true | _ -> false) s then
    String.split_on_char ' ' s
    |> List.concat_map (String.split_on_char '\n')
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun x -> x <> "")
  else if s = "" then []
  else [ s ]

let build_idref_index r d =
  let tbl = Hashtbl.create 256 in
  let visit n =
    if n.kind = Element then
      Array.iter
        (fun a ->
          if List.mem (name a) d.idref_attribute_names then
            List.iter
              (fun tok ->
                let prev = Option.value ~default:[] (Hashtbl.find_opt tbl tok) in
                Hashtbl.replace tbl tok (a :: prev))
              (id_tokens a.content))
        n.attributes
  in
  iter_subtree visit r;
  Hashtbl.iter (fun k v -> Hashtbl.replace tbl k (List.rev v)) tbl;
  d.idref_index <- Some tbl;
  tbl

let lookup_idref r v =
  let r = root r in
  let d = doc_of_root r in
  let tbl =
    match d.idref_index with Some t -> t | None -> build_idref_index r d
  in
  Option.value ~default:[] (Hashtbl.find_opt tbl v)

let set_uri r u = (doc_of_root (root r)).uri <- Some u
let uri r = match (root r).doc with Some d -> d.uri | None -> None
let compare_doc_order a b = Int.compare a.id b.id
let equal a b = a.id = b.id

let subtree_size n =
  let k = ref 0 in
  iter_subtree (fun _ -> incr k) n;
  !k

(* Largest id in the subtree of [n] (attributes included): with preorder
   ids, the subtree occupies exactly the interval [n.id, subtree_max_id n],
   found by descending the rightmost spine. *)
let rec subtree_max_id (n : t) =
  let nc = Array.length n.children in
  if nc > 0 then subtree_max_id n.children.(nc - 1)
  else
    let na = Array.length n.attributes in
    if na > 0 then n.attributes.(na - 1).id else n.id

(* The elements whose name [keep] accepts, in document order, found in
   one walk. The name index is only sound if ids really are preorder
   within this tree (document order = id order, so each bucket is
   doc-ordered and subtree containment is an id-interval test). All
   constructors guarantee this, but the walk validates it and answers
   [None] if the invariant ever fails. *)
let collect_by_name r ~keep =
  let tbl : (string, t list ref) Hashtbl.t = Hashtbl.create 256 in
  let prev = ref (r.id - 1) in
  let ok = ref true in
  let check (n : t) =
    if n.id <= !prev then ok := false;
    prev := n.id
  in
  let rec visit n =
    check n;
    Array.iter check n.attributes;
    (if n.kind = Element then
       let key = name n in
       if keep key then
         match Hashtbl.find_opt tbl key with
         | Some l -> l := n :: !l
         | None -> Hashtbl.add tbl key (ref [ n ]));
    Array.iter visit n.children
  in
  visit r;
  if !ok then Some tbl else None

(* Publishes [buckets] with the collected names' buckets put in. A
   lookup of a stale name rebuilds every stale bucket in one walk and
   publishes a fresh table, so readers building at once under a shared
   lock each publish a complete one. *)
let publish_names r d ~keep buckets =
  match collect_by_name r ~keep with
  | Some found ->
    Hashtbl.iter (fun k l -> Hashtbl.replace buckets k (Array.of_list (List.rev !l))) found;
    d.name_index <- Ni_built { buckets; stale = [] };
    Some buckets
  | None ->
    d.name_index <- Ni_disabled;
    None

let elements_by_name n nm =
  let r = root n in
  let d = doc_of_root r in
  let tbl =
    match d.name_index with
    | Ni_built { buckets; stale } when not (List.mem nm stale) -> Some buckets
    | Ni_built { buckets; stale } ->
      let fresh = Hashtbl.copy buckets in
      List.iter (Hashtbl.remove fresh) stale;
      publish_names r d ~keep:(fun k -> List.mem k stale) fresh
    | Ni_disabled -> None
    | Ni_unbuilt -> publish_names r d ~keep:(fun _ -> true) (Hashtbl.create 256)
  in
  match tbl with
  | None -> None
  | Some t -> Some (Option.value ~default:[||] (Hashtbl.find_opt t nm))

(* The string values of the nodes a key path reaches from [e]: what a
   general comparison atomizes the path to. *)
let key_values e path =
  let select keep arr acc =
    Array.fold_right (fun c acc -> if keep c then c :: acc else acc) arr acc
  in
  let step nodes = function
    | Key_child nm ->
      List.fold_right
        (fun n -> select (fun c -> c.kind = Element && name c = nm) n.children)
        nodes []
    | Key_attr nm ->
      List.fold_right (fun n -> select (fun a -> name a = nm) n.attributes) nodes []
    | Key_text ->
      List.fold_right (fun n -> select (fun c -> c.kind = Text) n.children) nodes []
  in
  List.map string_value (List.fold_left step [ e ] path)

(* Buckets are built in the order of [elems] (document order); an
   element whose key path yields one value twice is listed once. *)
let build_value_table elems path =
  let lists : (string, t list) Hashtbl.t = Hashtbl.create (Array.length elems) in
  Array.iter
    (fun e ->
      List.iter
        (fun v ->
          match Hashtbl.find_opt lists v with
          | Some (last :: _) when last == e -> ()
          | Some l -> Hashtbl.replace lists v (e :: l)
          | None -> Hashtbl.add lists v [ e ])
        (key_values e path))
    elems;
  let out = Hashtbl.create (max 16 (Hashtbl.length lists)) in
  Hashtbl.iter (fun v l -> Hashtbl.replace out v (Array.of_list (List.rev l))) lists;
  out

(* Each distinct (name, key path) a query probes costs one table per
   document; past this many the callers scan. *)
let max_value_tables = 16

(* Readers build concurrently under a shared lock: a table is published
   only once complete, and two readers racing on one key at worst build
   it twice. *)
let elements_by_value n nm path =
  let r = root n in
  let d = doc_of_root r in
  match List.assoc_opt (nm, path) d.value_index with
  | Some tbl -> Some tbl
  | None when List.length d.value_index >= max_value_tables -> None
  | None -> (
    match elements_by_name r nm with
    | None -> None
    | Some elems ->
      let tbl = build_value_table elems path in
      d.value_index <- ((nm, path), tbl) :: d.value_index;
      Some tbl)

(* ------------------------------------------------------------------ *)
(* In-place edits                                                      *)
(* ------------------------------------------------------------------ *)

(* Preorder walk from id [next]: with [set] it numbers the nodes, else
   it raises [Exit] at the first id off that block. Allocates nothing. *)
let visit_id ~set n id =
  if set then n.id <- id else if n.id <> id then raise_notrace Exit

let rec walk_ids ~set n next =
  visit_id ~set n next;
  let next = ref (next + 1) in
  for i = 0 to Array.length n.attributes - 1 do
    visit_id ~set (Array.unsafe_get n.attributes i) !next;
    incr next
  done;
  for i = 0 to Array.length n.children - 1 do
    next := walk_ids ~set (Array.unsafe_get n.children i) !next
  done;
  !next

(* One walk numbers the tree from just past the counter. A thread switch
   inside it could let another thread mint ids from the same range, so
   the block is taken only if the counter did not move; else the tree
   is walked again from past the new counter. *)
let rec number root =
  let base = !counter + 1 in
  let next = walk_ids ~set:true root base in
  if !counter <> base - 1 then number root else counter := next - 1

let renumber root =
  number root;
  match root.doc with
  | Some d ->
    d.id_index <- None;
    d.idref_index <- None;
    d.name_index <- Ni_unbuilt;
    d.value_index <- []
  | None -> ()

let ensure_contiguous root =
  try ignore (walk_ids ~set:false root root.id) with Exit -> renumber root

type patch_action =
  | Pa_delete
  | Pa_replace of t
  | Pa_insert_child of t * [ `First | `Last ]
  | Pa_insert_sibling of t * [ `Before | `After ]
  | Pa_set_text of string

let position p c =
  let rec go i = if p.children.(i) == c then i else go (i + 1) in
  go 0

(* [p]'s children with [kids] in place of the [drop] children at [i]. *)
let splice_children p i ~drop kids =
  let old = p.children in
  let nk = Array.length kids in
  Array.iter (fun k -> k.parent <- Some p) kids;
  p.children <-
    Array.init
      (Array.length old - drop + nk)
      (fun j ->
        if j < i then old.(j)
        else if j < i + nk then kids.(j - i)
        else old.(j - nk + drop))

(* [acc] with the element names in the subtree of [n] not yet in it. *)
let rec names_in acc n =
  let acc =
    if n.kind = Element && not (List.mem (name n) acc) then name n :: acc else acc
  in
  Array.fold_left names_in acc n.children

(* Whether an element named [nm] reads the edit at [at] through [path]:
   an edit changes [at]'s children, which a path of k child and text
   steps reads from an element at most k - 1 levels above [at] (an
   attribute-only path from none); a path ending in a child step reads
   its string value, the whole subtree, from any height. *)
let reaches_edit nm path at =
  let levels =
    match List.rev path with
    | Key_child _ :: _ -> max_int
    | _ -> List.length (List.filter (function Key_attr _ -> false | _ -> true) path) - 1
  in
  let rec up n k =
    k >= 0
    && ((n.kind = Element && String.equal (name n) nm)
       || match n.parent with Some p -> up p (k - 1) | None -> false)
  in
  up at levels

(* Survivors keep their relative order across a renumber, so a bucket
   whose elements the edit neither added nor removed stays exact, and
   so does a value table no edited subtree can reach. The edit only
   marks names stale and filters the table list: it allocates nothing
   in proportion to a bucket. *)
let keep_indexes d ~at ~inserted ~removed =
  d.id_index <- None;
  d.idref_index <- None;
  let touched = List.fold_left names_in (List.fold_left names_in [] inserted) removed in
  (match d.name_index with
  | Ni_built { buckets; stale } when touched <> [] ->
    d.name_index <-
      Ni_built
        { buckets;
          stale = List.fold_left (fun s nm -> if List.mem nm s then s else nm :: s) stale touched }
  | Ni_built _ | Ni_unbuilt -> ()
  | Ni_disabled -> d.name_index <- Ni_unbuilt);
  d.value_index <-
    List.filter
      (fun ((nm, path), _) -> not (List.mem nm touched || reaches_edit nm path at))
      d.value_index

let splice root ~target action =
  let parent () =
    match target.parent with
    | Some p -> p
    | None -> invalid_arg "Node.splice: target has no parent"
  in
  let inserted, removed, at =
    match action with
    | Pa_insert_child (tpl, pos) ->
      let n = deep_copy tpl in
      let i = if pos = `First then 0 else Array.length target.children in
      splice_children target i ~drop:0 [| n |];
      ([ n ], [], target)
    | Pa_insert_sibling (tpl, dir) ->
      let p = parent () in
      let n = deep_copy tpl in
      let i = position p target in
      splice_children p (if dir = `Before then i else i + 1) ~drop:0 [| n |];
      ([ n ], [], p)
    | Pa_delete ->
      let p = parent () in
      splice_children p (position p target) ~drop:1 [||];
      target.parent <- None;
      ([], [ target ], p)
    | Pa_replace tpl ->
      let p = parent () in
      let n = deep_copy tpl in
      splice_children p (position p target) ~drop:1 [| n |];
      target.parent <- None;
      ([ n ], [ target ], p)
    | Pa_set_text text ->
      let old = Array.to_list target.children in
      let tn = mk Text None text in
      splice_children target 0 ~drop:(List.length old) [| tn |];
      List.iter (fun c -> c.parent <- None) old;
      ([ tn ], old, target)
  in
  number root;
  (match root.doc with Some d -> keep_indexes d ~at ~inserted ~removed | None -> ());
  (inserted, removed, at)

let pp ppf n =
  match n.kind with
  | Document -> Format.fprintf ppf "document-node(#%d)" n.id
  | Element -> Format.fprintf ppf "<%s>#%d" (name n) n.id
  | Attribute -> Format.fprintf ppf "@%s=%S#%d" (name n) n.content n.id
  | Text -> Format.fprintf ppf "text(%S)#%d" n.content n.id
  | Comment -> Format.fprintf ppf "comment(#%d)" n.id
  | Pi -> Format.fprintf ppf "pi(%s)#%d" (name n) n.id
