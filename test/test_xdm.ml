(* Unit and property tests for the XQuery Data Model substrate:
   QNames, atoms, nodes (identity, document order), axes, sequences,
   XML parsing and serialization. *)

module Qname = Fixq_xdm.Qname
module Atom = Fixq_xdm.Atom
module Node = Fixq_xdm.Node
module Axis = Fixq_xdm.Axis
module Item = Fixq_xdm.Item
module Node_set = Fixq_xdm.Node_set
module Xml_parser = Fixq_xdm.Xml_parser
module Serializer = Fixq_xdm.Serializer

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let sample_doc () =
  Node.of_spec
    (Node.E
       ( "r", [ ("version", "1") ],
         [ Node.E ("a", [ ("id", "a1") ], [ Node.T "alpha" ]);
           Node.E
             ( "b", [],
               [ Node.E ("c", [], [ Node.T "gamma" ]);
                 Node.C "note";
                 Node.E ("c", [], [ Node.T "delta" ]) ] );
           Node.T "tail" ] ))

let find_elem doc name =
  let found = ref None in
  Node.iter_subtree
    (fun n -> if !found = None && Node.name n = name then found := Some n)
    doc;
  match !found with Some n -> n | None -> Alcotest.fail ("no element " ^ name)

let elems doc name =
  let out = ref [] in
  Node.iter_subtree
    (fun n -> if Node.name n = name then out := n :: !out)
    doc;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Qname / Atom                                                        *)
(* ------------------------------------------------------------------ *)

let test_qname () =
  let q = Qname.of_string "xs:integer" in
  check_str "local" "integer" (Qname.local q);
  check_str "roundtrip" "xs:integer" (Qname.to_string q);
  check "no prefix" true (Qname.equal (Qname.of_string "a") (Qname.make "a"));
  check "prefix differs" false
    (Qname.equal (Qname.of_string "x:a") (Qname.of_string "y:a"))

let test_atom_numeric () =
  check "int=dbl" true (Atom.equal_value (Atom.Int 3) (Atom.Dbl 3.0));
  check "str promotes" true (Atom.equal_value (Atom.Str "3") (Atom.Int 3));
  check_int "to_int" 42 (Atom.to_int (Atom.Str " 42 "));
  check_str "dbl prints like xpath" "2" (Atom.to_string (Atom.Dbl 2.0));
  check_str "frac" "2.5" (Atom.to_string (Atom.Dbl 2.5));
  check "bad number raises" true
    (try
       ignore (Atom.to_number (Atom.Str "zap"));
       false
     with Atom.Type_error _ -> true)

let test_atom_bool () =
  check "empty string false" false (Atom.to_bool (Atom.Str ""));
  check "zero false" false (Atom.to_bool (Atom.Int 0));
  check "nan false" false (Atom.to_bool (Atom.Dbl Float.nan));
  check "nonempty true" true (Atom.to_bool (Atom.Str "x"));
  check "bool vs int incomparable" true
    (try
       ignore (Atom.compare_value (Atom.Bool true) (Atom.Int 1));
       false
     with Atom.Type_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Node identity / order                                               *)
(* ------------------------------------------------------------------ *)

let test_ids_preorder () =
  let doc = sample_doc () in
  (* ids strictly increase along a preorder walk *)
  let last = ref (-1) in
  let ok = ref true in
  Node.iter_subtree
    (fun n ->
      if n.Node.id <= !last then ok := false;
      last := n.Node.id)
    doc;
  check "preorder ids" true !ok

let test_attribute_order () =
  let doc = sample_doc () in
  let a = find_elem doc "a" in
  let attr = List.hd (Node.attributes a) in
  check "attr after owner" true (Node.compare_doc_order a attr < 0);
  let b = find_elem doc "b" in
  check "attr before next elem" true (Node.compare_doc_order attr b < 0)

let test_deep_copy_fresh_ids () =
  let doc = sample_doc () in
  let b = find_elem doc "b" in
  let b' = Node.deep_copy b in
  check "copy not equal" false (Node.equal b b');
  check "copy after original" true (Node.compare_doc_order b b' < 0);
  check "structure preserved" true
    (Item.deep_equal [ Item.N b ] [ Item.N b' ]);
  check "copy has no parent" true (Node.parent b' = None)

let test_element_constructor_copies () =
  let doc = sample_doc () in
  let a = find_elem doc "a" in
  let wrapper = Node.element "w" ~attrs:[ ("k", "v") ] [ a ] in
  let child = List.hd (Node.children wrapper) in
  check "child copied (new identity)" false (Node.equal a child);
  check_str "content survives" "alpha" (Node.string_value child);
  (* original tree untouched *)
  check "original parent intact" true
    (match Node.parent a with Some p -> Node.name p = "r" | None -> false)

let test_string_value () =
  let doc = sample_doc () in
  check_str "doc string value" "alphagammadeltatail" (Node.string_value doc);
  let b = find_elem doc "b" in
  check_str "elem string value skips comments" "gammadelta"
    (Node.string_value b)

let test_id_index () =
  let doc =
    Node.of_spec ~id_attrs:[ "id" ]
      (Node.E
         ( "r", [],
           [ Node.E ("x", [ ("id", "one") ], []);
             Node.E ("y", [ ("id", "two") ], []) ] ))
  in
  check "lookup one" true
    (match Node.lookup_id doc "one" with
    | Some n -> Node.name n = "x"
    | None -> false);
  check "lookup missing" true (Node.lookup_id doc "three" = None);
  (* registering a new ID attribute rebuilds the index *)
  let doc2 =
    Node.of_spec
      (Node.E ("r", [], [ Node.E ("x", [ ("code", "c9") ], []) ]))
  in
  check "not indexed yet" true (Node.lookup_id doc2 "c9" = None);
  Node.register_id_attribute doc2 "code";
  check "indexed after registration" true
    (match Node.lookup_id doc2 "c9" with
    | Some n -> Node.name n = "x"
    | None -> false)

let test_subtree_size () =
  let doc = sample_doc () in
  (* r, a, text, b, c, text, comment, c, text, tail-text, doc *)
  check_int "subtree size" 11 (Node.subtree_size doc)

(* ------------------------------------------------------------------ *)
(* Axes                                                                *)
(* ------------------------------------------------------------------ *)

let test_axis_child_descendant () =
  let doc = sample_doc () in
  let r = find_elem doc "r" in
  check_int "children of r" 3 (List.length (Axis.step Axis.Child Axis.Kind_node r));
  check_int "child elements" 2
    (List.length (Axis.step Axis.Child (Axis.Kind_element None) r));
  check_int "descendant c" 2
    (List.length (Axis.step Axis.Descendant (Axis.Name "c") r));
  check_int "descendant-or-self nodes" 10
    (List.length (Axis.step Axis.Descendant_or_self Axis.Kind_node r))

let test_axis_reverse_order () =
  let doc = sample_doc () in
  let c2 = List.nth (elems doc "c") 1 in
  (* ancestor: nearest first *)
  let ancs = Axis.step Axis.Ancestor Axis.Kind_node c2 in
  check_str "nearest ancestor" "b" (Node.name (List.hd ancs));
  check_int "ancestors" 3 (List.length ancs);
  (* preceding-sibling: nearest first *)
  let ps = Axis.step Axis.Preceding_sibling Axis.Kind_node c2 in
  check "nearest preceding sibling is comment" true
    ((List.hd ps).Node.kind = Node.Comment);
  check_int "two preceding siblings" 2 (List.length ps)

let test_axis_following_preceding () =
  let doc = sample_doc () in
  let a = find_elem doc "a" in
  let f = Axis.step Axis.Following Axis.Kind_node a in
  (* b, c, gamma, comment, c, delta, tail *)
  check_int "following count" 7 (List.length f);
  let c2 = List.nth (elems doc "c") 1 in
  let p = Axis.step Axis.Preceding Axis.Kind_node c2 in
  (* reverse doc order; nearest is the comment *)
  check "preceding nearest is comment" true
    ((List.hd p).Node.kind = Node.Comment);
  (* following ∪ preceding ∪ ancestors ∪ descendants ∪ self = all nodes *)
  let all_parts =
    List.concat
      [ Axis.step Axis.Following Axis.Kind_node c2;
        Axis.step Axis.Preceding Axis.Kind_node c2;
        Axis.step Axis.Ancestor Axis.Kind_node c2;
        Axis.step Axis.Descendant Axis.Kind_node c2;
        [ c2 ] ]
  in
  check_int "axes partition the tree" (Node.subtree_size doc)
    (List.length all_parts)

let test_axis_attribute () =
  let doc = sample_doc () in
  let a = find_elem doc "a" in
  check_int "one attribute" 1
    (List.length (Axis.step Axis.Attribute (Axis.Name "*") a));
  check_int "named attribute" 1
    (List.length (Axis.step Axis.Attribute (Axis.Name "id") a));
  check_int "attribute never on child axis" 0
    (List.length (Axis.step Axis.Child (Axis.Name "id") a))

(* ------------------------------------------------------------------ *)
(* Item sequences                                                      *)
(* ------------------------------------------------------------------ *)

let test_ddo_and_setops () =
  let doc = sample_doc () in
  let a = find_elem doc "a" and b = find_elem doc "b" in
  let s = [ Item.N b; Item.N a; Item.N b ] in
  let dd = Item.ddo s in
  check_int "ddo dedups" 2 (List.length dd);
  check "ddo sorts" true
    (match dd with
    | [ Item.N x; Item.N y ] -> Node.equal x a && Node.equal y b
    | _ -> false);
  check_int "union" 2 (List.length (Item.union [ Item.N a ] [ Item.N b ]));
  check_int "except" 1
    (List.length (Item.except [ Item.N a; Item.N b ] [ Item.N b ]));
  check_int "intersect" 1
    (List.length (Item.intersect [ Item.N a; Item.N b ] [ Item.N b ]));
  check "atoms rejected" true
    (try
       ignore (Item.union [ Item.A (Atom.Int 1) ] []);
       false
     with Atom.Type_error _ -> true)

let test_set_equal () =
  let doc = sample_doc () in
  let a = find_elem doc "a" and b = find_elem doc "b" in
  check "order ignored" true
    (Item.set_equal [ Item.N a; Item.N b ] [ Item.N b; Item.N a ]);
  check "dupes ignored" true
    (Item.set_equal [ Item.N a; Item.N a ] [ Item.N a ]);
  check "paper example (1,a) s= (a,1,1)" true
    (Item.set_equal
       [ Item.A (Atom.Int 1); Item.A (Atom.Str "a") ]
       [ Item.A (Atom.Str "a"); Item.A (Atom.Int 1); Item.A (Atom.Int 1) ]);
  check "different sets" false
    (Item.set_equal [ Item.N a ] [ Item.N b ])

let test_effective_boolean () =
  let doc = sample_doc () in
  let a = find_elem doc "a" in
  check "empty false" false (Item.effective_boolean []);
  check "node true" true (Item.effective_boolean [ Item.N a ]);
  check "single false atom" false
    (Item.effective_boolean [ Item.A (Atom.Bool false) ]);
  check "multi-atom errors" true
    (try
       ignore
         (Item.effective_boolean [ Item.A (Atom.Int 1); Item.A (Atom.Int 2) ]);
       false
     with Atom.Type_error _ -> true)

let test_node_set () =
  let doc = sample_doc () in
  let a = find_elem doc "a" and b = find_elem doc "b" in
  let s = Node_set.of_nodes [ a; b; a ] in
  check_int "cardinal dedups" 2 (Node_set.cardinal s);
  check "mem" true (Node_set.mem a s);
  check "diff" true
    (Node_set.equal
       (Node_set.diff s (Node_set.of_nodes [ b ]))
       (Node_set.of_nodes [ a ]));
  check "subset" true (Node_set.subset (Node_set.of_nodes [ a ]) s)

(* ------------------------------------------------------------------ *)
(* XML parser / serializer                                             *)
(* ------------------------------------------------------------------ *)

let test_parse_basic () =
  let doc =
    Xml_parser.parse_string
      {|<?xml version="1.0"?><r a="1"><x>hi &amp; &lt;bye&gt;</x><!--c--><y/></r>|}
  in
  let r = List.hd (Node.children doc) in
  check_str "root" "r" (Node.name r);
  let x = find_elem doc "x" in
  check_str "entities decoded" "hi & <bye>" (Node.string_value x)

let test_parse_cdata_charref () =
  let doc =
    Xml_parser.parse_string {|<r><![CDATA[a<b&c]]>&#65;&#x42;</r>|}
  in
  check_str "cdata + charrefs" "a<b&cAB"
    (Node.string_value (List.hd (Node.children doc)))

let test_parse_doctype_id () =
  let doc =
    Xml_parser.parse_string
      {|<!DOCTYPE curriculum [
          <!ELEMENT curriculum (course)*>
          <!ATTLIST course code ID #REQUIRED>
        ]>
        <curriculum><course code="c1"/></curriculum>|}
  in
  check "DTD ID attribute indexed" true
    (match Node.lookup_id doc "c1" with
    | Some n -> Node.name n = "course"
    | None -> false)

let test_parse_strip_whitespace () =
  let src = "<r>\n  <a/>\n  <b/>\n</r>" in
  let keep = Xml_parser.parse_string src in
  let strip = Xml_parser.parse_string ~strip_whitespace:true src in
  check_int "kept whitespace" 5
    (List.length (Node.children (List.hd (Node.children keep))));
  check_int "stripped whitespace" 2
    (List.length (Node.children (List.hd (Node.children strip))))

let test_parse_errors () =
  let fails s =
    try
      ignore (Xml_parser.parse_string s);
      false
    with Xml_parser.Parse_error _ -> true
  in
  check "mismatched tags" true (fails "<a><b></a></b>");
  check "unterminated" true (fails "<a>");
  check "junk after root" true (fails "<a/><b/>");
  check "bad entity" true (fails "<a>&nosuch;</a>")

let test_serializer_roundtrip () =
  let src = {|<r a="x&quot;y"><k>1 &lt; 2</k><e/><!--note--></r>|} in
  let doc = Xml_parser.parse_string src in
  let out = Serializer.to_string doc in
  let doc2 = Xml_parser.parse_string out in
  check "roundtrip deep-equal" true
    (Item.deep_equal
       [ Item.N (List.hd (Node.children doc)) ]
       [ Item.N (List.hd (Node.children doc2)) ])

let test_serializer_escapes () =
  check_str "text escape" "a&lt;b&gt;c&amp;d" (Serializer.escape_text "a<b>c&d");
  check_str "attr escape" "a&quot;b" (Serializer.escape_attr "a\"b")

(* The per-character escaper [Serializer.escape_gen] replaced, as the
   reference for the run-blitting one. *)
let reference_escape escape_quote s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' when escape_quote -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prop_escape_matches_reference =
  let gen =
    let open QCheck2.Gen in
    let piece =
      frequency
        [ (3, string_size ~gen:(char_range ' ' '~') (int_bound 10));
          (2, oneofl [ "<"; ">"; "&"; "\""; "'"; "\195\169"; "\n" ]) ]
    in
    map (String.concat "") (list_size (int_bound 30) piece)
  in
  QCheck2.Test.make ~count:500 ~name:"markup escape = per-character"
    ~print:(Printf.sprintf "%S") gen
    (fun s ->
      let text = Serializer.escape_text s and attr = Serializer.escape_attr s in
      let text_ref = reference_escape false s
      and attr_ref = reference_escape true s in
      text = text_ref && attr = attr_ref
      (* clean text comes back as the very same string *)
      && (text == s) = (text_ref = s)
      && (attr == s) = (attr_ref = s))

let test_serializer_indent () =
  let doc =
    Xml_parser.parse_string ~strip_whitespace:true
      "<r><a><b>t</b></a><c/></r>"
  in
  let out = Serializer.to_string ~indent:true (List.hd (Node.children doc)) in
  check "indented output has newlines" true (String.contains out '\n');
  (* indented output still reparses to the same structure modulo
     whitespace *)
  let doc2 = Xml_parser.parse_string ~strip_whitespace:true out in
  check "indent roundtrip" true
    (Item.deep_equal
       [ Item.N (List.hd (Node.children doc)) ]
       [ Item.N (List.hd (Node.children doc2)) ])

let test_registry_file_fallback () =
  let reg = Fixq_xdm.Doc_registry.create () in
  let path = Filename.temp_file "fixq" ".xml" in
  let oc = open_out path in
  output_string oc "<r><a/></r>";
  close_out oc;
  (match Fixq_xdm.Doc_registry.find ~registry:reg path with
  | Some d ->
    check_int "loaded from disk" 1
      (List.length (Axis.step Axis.Descendant (Axis.Name "a") d))
  | None -> Alcotest.fail "file fallback did not load");
  (* second lookup hits the registry (same node) *)
  let d1 = Option.get (Fixq_xdm.Doc_registry.find ~registry:reg path) in
  let d2 = Option.get (Fixq_xdm.Doc_registry.find ~registry:reg path) in
  check "stable across lookups" true (Node.equal d1 d2);
  Sys.remove path

let test_allocated_monotonic () =
  let before = Node.allocated () in
  let _ = Node.text "x" in
  check "allocation counter advances" true (Node.allocated () > before)

let test_printers () =
  let doc = sample_doc () in
  let a = find_elem doc "a" in
  check "node pp mentions the name" true
    (let s = Format.asprintf "%a" Node.pp a in
     String.length s > 0);
  check "seq serialization separates items" true
    (Serializer.seq_to_string
       [ Item.A (Atom.Int 1); Item.A (Atom.Str "x") ]
    = "1 x");
  check "atoms escaped in seq output" true
    (Serializer.seq_to_string [ Item.A (Atom.Str "a<b") ] = "a&lt;b")

let test_doc_registry () =
  let reg = Fixq_xdm.Doc_registry.create () in
  let doc = sample_doc () in
  Fixq_xdm.Doc_registry.register ~registry:reg "u.xml" doc;
  check "find registered" true
    (match Fixq_xdm.Doc_registry.find ~registry:reg "u.xml" with
    | Some d -> Node.equal d doc
    | None -> false);
  check "missing" true
    (Fixq_xdm.Doc_registry.find ~registry:reg "missing.xml" = None);
  check_str "uri recorded" "u.xml" (Option.get (Node.uri doc))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Random tree specs for property tests. *)
let spec_gen =
  let open QCheck2.Gen in
  let names = oneofl [ "a"; "b"; "c"; "d" ] in
  sized
  @@ fix (fun self n ->
         if n <= 1 then map (fun s -> Node.T s) (oneofl [ "x"; "y"; "" ])
         else
           frequency
             [ (1, map (fun s -> Node.T s) (oneofl [ "x"; "y" ]));
               ( 3,
                 map2
                   (fun name kids -> Node.E (name, [], kids))
                   names
                   (list_size (int_bound 3) (self (n / 2))) ) ])

(* Serialization cannot distinguish adjacent or empty text nodes (they
   merge/vanish on reparse), so normalize the spec; also force an
   element at the root so serialized fragments re-parse. *)
let rec normalize_spec = function
  | Node.E (n, attrs, kids) ->
    let kids = List.map normalize_spec kids in
    let rec merge = function
      | Node.T "" :: rest -> merge rest
      | Node.T a :: Node.T b :: rest -> merge (Node.T (a ^ b) :: rest)
      | k :: rest -> k :: merge rest
      | [] -> []
    in
    Node.E (n, attrs, merge kids)
  | other -> other

let tree_gen =
  QCheck2.Gen.map
    (fun s ->
      let wrapped =
        match s with
        | Node.E _ -> s
        | other -> Node.E ("root", [], [ other ])
      in
      Node.of_spec (normalize_spec wrapped))
    spec_gen

let all_nodes doc =
  let out = ref [] in
  Node.iter_subtree (fun n -> out := n :: !out) doc;
  List.rev !out

let prop_serializer_roundtrip =
  QCheck2.Test.make ~count:100 ~name:"serializer/parser roundtrip" tree_gen
    (fun doc ->
      let root = List.hd (Node.children doc) in
      let out = Serializer.to_string root in
      let doc2 = Xml_parser.parse_fragment out in
      Item.deep_equal [ Item.N root ] [ Item.N doc2 ])

(* [Node.t.clean] is true exactly when no byte of the node's content or
   name is one that markup or JSON escaping rewrites, for nodes from
   every constructor: the XML parser, [of_spec], computed constructors
   (direct and through the evaluator) and patch splices. *)
let prop_clean_flag =
  let open QCheck2.Gen in
  let piece =
    frequency
      [ (4, string_size ~gen:(char_range ' ' '~') (int_bound 6)
            |> map (String.map (fun c -> if String.contains "\"\\<>&" c then 'x' else c)));
        (1, oneofl [ "<"; ">"; "&"; "\""; "\\"; "\n"; "\001"; "\031"; "\127";
                     "\195\169"; "'" ]) ]
  in
  let text = map (String.concat "") (list_size (int_bound 4) piece) in
  let gen = pair (pair text text) (oneofl [ "a"; "x:y"; "q\"n"; "b\tc" ]) in
  let needs c = Char.code c < 0x20 || String.contains "\"\\<>&" c in
  let rec every f (n : Node.t) =
    f n;
    Array.iter (every f) n.Node.attributes;
    Array.iter (every f) n.Node.children
  in
  let right (n : Node.t) =
    n.Node.clean = not (String.exists needs n.Node.content || String.exists needs (Node.name n))
  in
  (* XML source for [s]: entities for markup, character references for
     control bytes *)
  let xml_escape s =
    String.concat ""
      (List.map
         (fun c ->
           match c with
           | '<' -> "&lt;" | '>' -> "&gt;" | '&' -> "&amp;" | '"' -> "&quot;"
           | c when Char.code c < 0x20 -> Printf.sprintf "&#%d;" (Char.code c)
           | c -> String.make 1 c)
         (List.of_seq (String.to_seq s)))
  in
  QCheck2.Test.make ~count:300 ~name:"clean = no byte needs escaping"
    ~print:(fun ((s, t), nm) -> Printf.sprintf "%S %S %S" s t nm)
    gen
    (fun ((s, t), nm) ->
      let xml_name = if String.exists needs nm then "a" else nm in
      let parsed =
        Xml_parser.parse_string
          (Printf.sprintf {|<%s k="%s">%s<!--c--><?p %s?></%s>|} xml_name
             (xml_escape s) (xml_escape t) (if String.exists needs t then "t" else t)
             xml_name)
      in
      let spec =
        Node.of_spec
          (Node.E (nm, [ ("k", s); (nm, t) ], [ Node.T t; Node.C s; Node.P ("p", t) ]))
      in
      let computed =
        Node.element nm ~attrs:[ ("k", s) ]
          [ Node.text t; Node.comment s; Node.attribute nm t ]
      in
      let evaluated =
        let ev = Fixq_lang.Eval.create () in
        Fixq_lang.Eval.eval_expr ev
          ~vars:[ ("s", [ Item.A (Atom.Str s) ]); ("t", [ Item.A (Atom.Str t) ]) ]
          (Fixq_lang.Parser.parse_expr
             {|element e { attribute k { $s }, text { $t }, comment { $s } }|})
      in
      let patched =
        let doc = Node.of_spec (Node.E ("r", [], [ Node.E ("p", [], []) ])) in
        ignore (Fixq_xdm.Patch.apply doc (Fixq_xdm.Patch.Set_text { path = "/r/p"; text = s }));
        ignore
          (Fixq_xdm.Patch.apply doc
             (Fixq_xdm.Patch.Insert
                { path = "/r"; position = Fixq_xdm.Patch.Last;
                  xml = Printf.sprintf {|<q k="%s">%s</q>|} (xml_escape t) (xml_escape s) }));
        doc
      in
      let ok = ref true in
      List.iter (every (fun n -> if not (right n) then ok := false))
        (parsed :: spec :: computed :: patched
         :: List.filter_map (function Item.N n -> Some n | Item.A _ -> None) evaluated);
      !ok)

let prop_doc_order_total =
  QCheck2.Test.make ~count:100 ~name:"document order is preorder" tree_gen
    (fun doc ->
      let ns = all_nodes doc in
      let sorted = List.sort Node.compare_doc_order ns in
      List.for_all2 Node.equal ns sorted)

let prop_axes_partition =
  QCheck2.Test.make ~count:100
    ~name:"self/anc/desc/following/preceding partition the tree" tree_gen
    (fun doc ->
      let ns = all_nodes doc in
      List.for_all
        (fun n ->
          let parts =
            [ [ n ];
              Axis.step Axis.Ancestor Axis.Kind_node n;
              Axis.step Axis.Descendant Axis.Kind_node n;
              Axis.step Axis.Following Axis.Kind_node n;
              Axis.step Axis.Preceding Axis.Kind_node n ]
          in
          let total = List.concat parts in
          List.length total = List.length ns
          && Node_set.equal (Node_set.of_nodes total) (Node_set.of_nodes ns))
        ns)

(* [Axis.nth] answers [axis::test[k]] from the children array; it must
   pick the node the materialised axis holds at position k, attributes
   (which have no siblings) included. *)
let prop_nth_matches_step =
  QCheck2.Test.make ~count:100 ~name:"positional child/sibling steps = step"
    tree_gen
    (fun doc ->
      let ns =
        List.concat_map (fun n -> n :: Node.attributes n) (all_nodes doc)
      in
      List.for_all
        (fun n ->
          List.for_all
            (fun (axis, test) ->
              let full = Axis.step axis test n in
              List.for_all
                (fun k ->
                  Option.equal Node.equal (Axis.nth axis test n k)
                    (if k < 1 then None else List.nth_opt full (k - 1)))
                [ 0; 1; 2; 3 ])
            [ (Axis.Child, Axis.Kind_node); (Axis.Child, Axis.Name "*");
              (Axis.Following_sibling, Axis.Kind_node);
              (Axis.Following_sibling, Axis.Name "a");
              (Axis.Preceding_sibling, Axis.Kind_node);
              (Axis.Preceding_sibling, Axis.Name "b") ])
        ns)

let prop_union_setops =
  QCheck2.Test.make ~count:100 ~name:"node-set algebra laws" tree_gen
    (fun doc ->
      let ns = all_nodes doc in
      let half1 = List.filteri (fun i _ -> i mod 2 = 0) ns in
      let half2 = List.filteri (fun i _ -> i mod 3 = 0) ns in
      let s1 = List.map Item.node half1 and s2 = List.map Item.node half2 in
      Item.set_equal (Item.union s1 s2) (Item.union s2 s1)
      && Item.set_equal
           (Item.except (Item.union s1 s2) s2)
           (Item.except s1 s2)
      && Item.set_equal (Item.intersect s1 s2) (Item.intersect s2 s1)
      && Item.set_equal
           (Item.union (Item.except s1 s2) (Item.intersect s1 s2))
           s1)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "xdm"
    [ ( "qname-atom",
        [ Alcotest.test_case "qname" `Quick test_qname;
          Alcotest.test_case "atom numerics" `Quick test_atom_numeric;
          Alcotest.test_case "atom booleans" `Quick test_atom_bool ] );
      ( "node",
        [ Alcotest.test_case "preorder ids" `Quick test_ids_preorder;
          Alcotest.test_case "attribute order" `Quick test_attribute_order;
          Alcotest.test_case "deep copy" `Quick test_deep_copy_fresh_ids;
          Alcotest.test_case "element constructor copies" `Quick
            test_element_constructor_copies;
          Alcotest.test_case "string value" `Quick test_string_value;
          Alcotest.test_case "id index" `Quick test_id_index;
          Alcotest.test_case "subtree size" `Quick test_subtree_size ] );
      ( "axes",
        [ Alcotest.test_case "child/descendant" `Quick
            test_axis_child_descendant;
          Alcotest.test_case "reverse order" `Quick test_axis_reverse_order;
          Alcotest.test_case "following/preceding" `Quick
            test_axis_following_preceding;
          Alcotest.test_case "attribute axis" `Quick test_axis_attribute ] );
      ( "items",
        [ Alcotest.test_case "ddo and set ops" `Quick test_ddo_and_setops;
          Alcotest.test_case "set equality" `Quick test_set_equal;
          Alcotest.test_case "effective boolean" `Quick
            test_effective_boolean;
          Alcotest.test_case "node sets" `Quick test_node_set ] );
      ( "xml",
        [ Alcotest.test_case "basic parse" `Quick test_parse_basic;
          Alcotest.test_case "cdata + charrefs" `Quick
            test_parse_cdata_charref;
          Alcotest.test_case "DTD ID declarations" `Quick
            test_parse_doctype_id;
          Alcotest.test_case "whitespace stripping" `Quick
            test_parse_strip_whitespace;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "roundtrip" `Quick test_serializer_roundtrip;
          Alcotest.test_case "escapes" `Quick test_serializer_escapes;
          Alcotest.test_case "printers" `Quick test_printers;
          Alcotest.test_case "registry" `Quick test_doc_registry;
          Alcotest.test_case "serializer indent" `Quick
            test_serializer_indent;
          Alcotest.test_case "registry file fallback" `Quick
            test_registry_file_fallback;
          Alcotest.test_case "allocation counter" `Quick
            test_allocated_monotonic ] );
      ( "properties",
        qc
          [ prop_serializer_roundtrip; prop_clean_flag;
            prop_escape_matches_reference;
            prop_doc_order_total;
            prop_axes_partition;
            prop_nth_matches_step;
            prop_union_setops ] ) ]
