exception Patch_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Patch_error s)) fmt

type position = First | Last | Before | After

type op =
  | Insert of { path : string; position : position; xml : string }
  | Delete of { path : string }
  | Replace of { path : string; xml : string }
  | Set_text of { path : string; text : string }

type delta = {
  inserted : Node.t list;
  inserted_count : int;
  removed : Node.t list;
  deleted : int list;
  edit_parent : Node.t;
}

let position_of_string = function
  | "into" | "into-last" | "last" -> Some Last
  | "into-first" | "first" -> Some First
  | "before" -> Some Before
  | "after" -> Some After
  | _ -> None

let string_of_position = function
  | First -> "into-first"
  | Last -> "into-last"
  | Before -> "before"
  | After -> "after"

let path_of_op = function
  | Insert { path; _ } | Delete { path } | Replace { path; _ }
  | Set_text { path; _ } ->
    path

(* Paths are a deliberately small fragment of XPath: child element
   steps with optional 1-based positional selectors, [/site/people[2]].
   Anything richer belongs in a query, not an edit address. *)
let parse_path s =
  if s = "" || s.[0] <> '/' then err "patch path must start with '/': %S" s;
  let segs = List.tl (String.split_on_char '/' s) in
  if segs = [] || List.exists (fun x -> x = "") segs then
    err "empty step in patch path %S" s;
  List.map
    (fun seg ->
      match String.index_opt seg '[' with
      | None -> (seg, 1)
      | Some i ->
        let n = String.length seg in
        if i = 0 || n < i + 3 || seg.[n - 1] <> ']' then
          err "malformed step %S in patch path %S" seg s;
        let name = String.sub seg 0 i in
        (match int_of_string_opt (String.sub seg (i + 1) (n - i - 2)) with
        | Some k when k >= 1 -> (name, k)
        | _ -> err "positional selector in %S must be a positive integer" seg))
    segs

(* Walks the children arrays: resolving allocates nothing per sibling. *)
let resolve root path =
  let steps = parse_path path in
  List.fold_left
    (fun ctx (nm, k) ->
      let kids = ctx.Node.children in
      let rec find i seen =
        if i >= Array.length kids then
          err "path %S: no element %s[%d] under %s" path nm k
            (match ctx.Node.kind with
            | Node.Document -> "the document root"
            | _ -> "<" ^ Node.name ctx ^ ">")
        else
          let c = kids.(i) in
          if c.Node.kind = Node.Element && String.equal (Node.name c) nm then
            if seen + 1 = k then c else find (i + 1) (seen + 1)
          else find (i + 1) seen
      in
      find 0 0)
    root steps

let fragment xml =
  match Xml_parser.parse_fragment ~strip_whitespace:true xml with
  | n -> n
  | exception Xml_parser.Parse_error { line; col; msg } ->
    err "bad patch XML (line %d, col %d): %s" line col msg

let subtree_ids n =
  let ids = ref [] in
  Node.iter_subtree
    (fun x ->
      ids := x.Node.id :: !ids;
      Array.iter (fun (a : Node.t) -> ids := a.Node.id :: !ids) x.Node.attributes)
    n;
  !ids

let under_document t =
  match Node.parent t with
  | Some p -> p.Node.kind = Node.Document
  | None -> true

let apply root op =
  let parent_of t = match Node.parent t with Some p -> p | None -> t in
  (* Every check that can fail runs before the tree is touched, so a
     refused patch leaves the document exactly as it was. *)
  let target, action, anchor =
    match op with
    | Insert { path; position; xml } -> (
      let t = resolve root path in
      let tpl = fragment xml in
      match position with
      | First -> (t, Node.Pa_insert_child (tpl, `First), t)
      | Last -> (t, Node.Pa_insert_child (tpl, `Last), t)
      | Before | After ->
        if under_document t then
          err "cannot insert a sibling of the document root element";
        let dir = if position = Before then `Before else `After in
        (t, Node.Pa_insert_sibling (tpl, dir), parent_of t))
    | Delete { path } ->
      let t = resolve root path in
      if under_document t then
        err "cannot delete the document root element";
      (t, Node.Pa_delete, parent_of t)
    | Replace { path; xml } ->
      let t = resolve root path in
      (t, Node.Pa_replace (fragment xml), parent_of t)
    | Set_text { path; text } ->
      let t = resolve root path in
      (t, Node.Pa_set_text text, t)
  in
  let inserted, removed = Node.splice root ~target action in
  { inserted;
    inserted_count = List.length (List.concat_map subtree_ids inserted);
    removed;
    deleted = List.concat_map subtree_ids removed;
    edit_parent = anchor }
