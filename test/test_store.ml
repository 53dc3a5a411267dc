(* The pre/size/level encoding and the staircase join, differentially
   tested against the navigational axes of the data model. *)

module Node = Fixq_xdm.Node
module Axis = Fixq_xdm.Axis
module Node_set = Fixq_xdm.Node_set
module Encoding = Fixq_store.Encoding
module Staircase = Fixq_store.Staircase

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sample ?uri () =
  Node.of_spec ?uri
    (Node.E
       ( "r", [],
         [ Node.E ("a", [], [ Node.E ("b", [], [ Node.T "t" ]) ]);
           Node.E ("a", [], []);
           Node.E ("c", [], [ Node.E ("a", [], [ Node.E ("b", [], []) ]) ])
         ] ))

let all_nodes doc =
  let out = ref [] in
  Node.iter_subtree (fun n -> out := n :: !out) doc;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Encoding invariants                                                 *)
(* ------------------------------------------------------------------ *)

let test_encoding_shape () =
  let doc = sample () in
  let enc = Encoding.of_tree doc in
  check_int "one row per node" (Node.subtree_size doc) (Encoding.size enc);
  (* pre ranks are 0..n-1 and row_of_node inverts them *)
  let ok = ref true in
  for pre = 0 to Encoding.size enc - 1 do
    let r = Encoding.row enc pre in
    if r.Encoding.pre <> pre then ok := false;
    if (Encoding.row_of_node enc r.Encoding.node).Encoding.pre <> pre then
      ok := false
  done;
  check "pre ranks consistent" true !ok

let test_encoding_size_level () =
  let doc = sample () in
  let enc = Encoding.of_tree doc in
  let ok = ref true in
  for pre = 0 to Encoding.size enc - 1 do
    let r = Encoding.row enc pre in
    (* size = number of nodes in the subtree below *)
    let expected = Node.subtree_size r.Encoding.node - 1 in
    if r.Encoding.size <> expected then ok := false;
    (* level = parent chain length *)
    let rec depth (n : Node.t) =
      match Node.parent n with None -> 0 | Some p -> 1 + depth p
    in
    if r.Encoding.level <> depth r.Encoding.node then ok := false
  done;
  check "size and level columns" true !ok

let test_encoding_region_property () =
  (* descendants of v are exactly the pre range (pre, pre+size] *)
  let doc = sample () in
  let enc = Encoding.of_tree doc in
  let ok = ref true in
  List.iter
    (fun v ->
      let rv = Encoding.row_of_node enc v in
      let desc = Axis.step Axis.Descendant Axis.Kind_node v in
      let desc_pres =
        List.map (fun d -> (Encoding.row_of_node enc d).Encoding.pre) desc
      in
      let expected =
        List.init rv.Encoding.size (fun i -> rv.Encoding.pre + 1 + i)
      in
      if List.sort compare desc_pres <> expected then ok := false)
    (all_nodes doc);
  check "descendant region" true !ok

let test_encoding_cache () =
  let doc = sample ~uri:"encoding-cache.xml" () in
  let e1 = Encoding.of_tree_cached doc in
  let e2 = Encoding.of_tree_cached (List.hd (Node.children doc)) in
  check "cache returns same encoding for same tree" true (e1 == e2);
  Node.renumber doc;
  check "a renumbered document is encoded again" false
    (Encoding.of_tree_cached doc == e1);
  let anon = sample () in
  check "a tree without a URI is not kept process-wide" false
    (Encoding.of_tree_cached anon == Encoding.of_tree_cached anon)

(* ------------------------------------------------------------------ *)
(* Staircase join vs navigational axes                                 *)
(* ------------------------------------------------------------------ *)

let axes_to_test =
  [ Axis.Child; Axis.Descendant; Axis.Descendant_or_self; Axis.Parent;
    Axis.Ancestor; Axis.Ancestor_or_self; Axis.Self; Axis.Following_sibling;
    Axis.Preceding_sibling; Axis.Following; Axis.Preceding ]

let tests_to_test =
  [ Axis.Kind_node; Axis.Name "a"; Axis.Name "b"; Axis.Name "*";
    Axis.Kind_text; Axis.Kind_element None ]

let same_node_set a b =
  Node_set.equal (Node_set.of_nodes a) (Node_set.of_nodes b)

let staircase_matches_axes doc =
  let enc = Encoding.of_tree doc in
  let ns = all_nodes doc in
  List.for_all
    (fun axis ->
      List.for_all
        (fun test ->
          (* single-node contexts *)
          List.for_all
            (fun n ->
              same_node_set
                (Staircase.step_nodes enc axis test [ n ])
                (Axis.step axis test n))
            ns
          (* and a multi-node context (dedup semantics) *)
          && same_node_set
               (Staircase.step_nodes enc axis test ns)
               (List.concat_map (Axis.step axis test) ns))
        tests_to_test)
    axes_to_test

let test_staircase_sample () =
  check "staircase = axes on sample" true (staircase_matches_axes (sample ()))

let test_staircase_result_sorted () =
  let doc = sample () in
  let enc = Encoding.of_tree doc in
  let ns = all_nodes doc in
  let pres =
    List.sort_uniq compare
      (List.map (fun n -> (Encoding.row_of_node enc n).Encoding.pre) ns)
  in
  List.iter
    (fun axis ->
      let out = Staircase.step enc axis Axis.Kind_node pres in
      if List.sort compare out <> out then
        Alcotest.failf "unsorted result on %s" (Axis.axis_to_string axis))
    axes_to_test;
  check "sorted" true true

let test_staircase_attributes () =
  let doc =
    Node.of_spec
      (Node.E
         ( "r", [ ("x", "1") ],
           [ Node.E ("a", [ ("y", "2"); ("z", "3") ], []) ] ))
  in
  let enc = Encoding.of_tree doc in
  let a =
    (Encoding.row enc 2).Encoding.node (* doc=0, r=1, a=2 *)
  in
  Alcotest.(check int)
    "two attributes" 2
    (List.length (Staircase.step_nodes enc Axis.Attribute (Axis.Name "*") [ a ]))

(* Property: staircase equals axes on random trees. The property steps
   from every node of a tree, so its work grows with the square of the
   tree's size; the size parameter is bounded (trees of at most a few
   hundred nodes) because an unbounded [sized] draw of up to 10_000
   occasionally builds a tree of thousands of nodes that alone takes a
   minute. *)
let spec_gen =
  let open QCheck2.Gen in
  let names = oneofl [ "a"; "b"; "c" ] in
  sized_size (int_bound 100)
  @@ fix (fun self n ->
         if n <= 1 then map (fun s -> Node.T s) (oneofl [ "x"; "y" ])
         else
           frequency
             [ (1, map (fun s -> Node.T s) (oneofl [ "x"; "y" ]));
               ( 4,
                 map2
                   (fun name kids -> Node.E (name, [], kids))
                   names
                   (list_size (int_bound 4) (self (n / 2))) ) ])

let tree_gen = QCheck2.Gen.map (fun s -> Node.of_spec s) spec_gen

let prop_staircase =
  QCheck2.Test.make ~count:60 ~name:"staircase = navigational axes"
    tree_gen staircase_matches_axes

let () =
  Alcotest.run "store"
    [ ( "encoding",
        [ Alcotest.test_case "shape" `Quick test_encoding_shape;
          Alcotest.test_case "size/level" `Quick test_encoding_size_level;
          Alcotest.test_case "descendant region" `Quick
            test_encoding_region_property;
          Alcotest.test_case "cache" `Quick test_encoding_cache ] );
      ( "staircase",
        [ Alcotest.test_case "sample differential" `Quick
            test_staircase_sample;
          Alcotest.test_case "sorted results" `Quick
            test_staircase_result_sorted;
          Alcotest.test_case "attributes" `Quick test_staircase_attributes ]
      );
      ("properties", [ QCheck_alcotest.to_alcotest prop_staircase ]) ]
