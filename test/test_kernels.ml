(* Property tests for the PR-3 set kernels: the merge-based
   ddo/union/except/intersect in Item, the incremental fixpoint
   Accumulator, and the name-indexed descendant steps in Axis — each
   checked against a straightforward list-based reference on randomized
   node multisets drawn from several documents. Plus regression tests
   for the Atom_set set-equality path (quadratic before PR 3). *)

module Node = Fixq_xdm.Node
module Atom = Fixq_xdm.Atom
module Item = Fixq_xdm.Item
module Axis = Fixq_xdm.Axis
module Accumulator = Fixq_xdm.Accumulator
module Counters = Fixq_xdm.Counters

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Fixtures: a pool of nodes spanning three documents                  *)
(* ------------------------------------------------------------------ *)

let docs =
  (* distinct shapes, shared element names, text/comment nodes mixed
     in — the kernels must only ever see ids, never care about shape *)
  let leaf n = Node.E ("leaf", [ ("n", string_of_int n) ], [ Node.T "x" ]) in
  [ Node.of_spec
      (Node.E
         ( "r", [],
           [ Node.E ("a", [], [ leaf 1; Node.E ("b", [], [ leaf 2 ]) ]);
             Node.E ("b", [], [ leaf 3; Node.C "note"; leaf 4 ]);
             Node.T "tail" ] ));
    Node.of_spec
      (Node.E
         ( "r", [],
           List.init 10 (fun i ->
               Node.E
                 ( (if i mod 2 = 0 then "a" else "b"), [],
                   [ leaf (10 + i) ] )) ));
    Node.of_spec (Node.E ("a", [], [ Node.E ("a", [], [ leaf 100 ]) ])) ]

let pool =
  let out = ref [] in
  List.iter (fun d -> Node.iter_subtree (fun n -> out := n :: !out) d) docs;
  Array.of_list (List.rev !out)

let node_of_idx i = pool.(i mod Array.length pool)
let seq_of_idxs l = List.map (fun i -> Item.node (node_of_idx i)) l

let ids_of_seq s =
  List.map
    (function Item.N n -> n.Node.id | Item.A _ -> Alcotest.fail "atom")
    s

(* ------------------------------------------------------------------ *)
(* List-based reference implementations                                *)
(* ------------------------------------------------------------------ *)

let ref_ddo ns = List.sort_uniq Node.compare_doc_order ns
let mem n l = List.exists (fun m -> Node.compare_doc_order n m = 0) l
let ref_union a b = ref_ddo (a @ b)
let ref_except a b = List.filter (fun n -> not (mem n b)) (ref_ddo a)
let ref_intersect a b = List.filter (fun n -> mem n b) (ref_ddo a)
let ids = List.map (fun n -> n.Node.id)

let nodes_of_idxs l = List.map node_of_idx l

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let idx_gen = QCheck2.Gen.(list_size (int_bound 40) (int_bound 200))

let prop_kernels_match_reference =
  QCheck2.Test.make ~count:300 ~name:"merge kernels = list reference"
    QCheck2.Gen.(pair idx_gen idx_gen)
    (fun (ia, ib) ->
      let na = nodes_of_idxs ia and nb = nodes_of_idxs ib in
      let sa = seq_of_idxs ia and sb = seq_of_idxs ib in
      ids_of_seq (Item.ddo sa) = ids (ref_ddo na)
      && ids_of_seq (Item.union sa sb) = ids (ref_union na nb)
      && ids_of_seq (Item.except sa sb) = ids (ref_except na nb)
      && ids_of_seq (Item.intersect sa sb) = ids (ref_intersect na nb))

let prop_doc_order =
  QCheck2.Test.make ~count:200 ~name:"kernel outputs strictly doc-ordered"
    QCheck2.Gen.(pair idx_gen idx_gen)
    (fun (ia, ib) ->
      let strictly_sorted s =
        let rec go = function
          | Item.N x :: (Item.N y :: _ as rest) ->
            Node.compare_doc_order x y < 0 && go rest
          | [ Item.N _ ] | [] -> true
          | _ -> false
        in
        go s
      in
      let sa = seq_of_idxs ia and sb = seq_of_idxs ib in
      List.for_all strictly_sorted
        [ Item.ddo sa; Item.union sa sb; Item.except sa sb;
          Item.intersect sa sb ])

let prop_accumulator =
  (* a run of absorb batches behaves like folding the reference union,
     and each round's fresh delta is exactly what the reference except
     would produce *)
  QCheck2.Test.make ~count:200 ~name:"accumulator = fold of union"
    QCheck2.Gen.(list_size (int_bound 8) idx_gen)
    (fun batches ->
      let acc = Accumulator.create () in
      let reference = ref [] in
      List.for_all
        (fun batch ->
          let nodes = nodes_of_idxs batch in
          let (fresh, fresh_count, produced) =
            Accumulator.absorb acc ~who:"test" (seq_of_idxs batch)
          in
          let expect_fresh = ref_except nodes !reference in
          reference := ref_union !reference nodes;
          ids_of_seq fresh = ids expect_fresh
          && fresh_count = List.length expect_fresh
          && produced = List.length batch
          && Accumulator.size acc = List.length !reference
          && ids_of_seq (Accumulator.to_seq acc) = ids !reference
          && List.for_all (fun n -> Accumulator.mem acc n) !reference)
        batches)

let name_gen = QCheck2.Gen.oneofl [ "a"; "b"; "leaf"; "r"; "*"; "zzz" ]

let prop_indexed_step =
  (* Axis.step answers descendant name tests from the per-document name
     index with subtree pruning; Axis.nodes is the plain unindexed
     traversal — they must agree from every context node *)
  QCheck2.Test.make ~count:300 ~name:"indexed descendant step = scan"
    QCheck2.Gen.(pair (int_bound 200) name_gen)
    (fun (i, nm) ->
      let n = node_of_idx i in
      let reference axis =
        List.filter (Axis.matches axis (Axis.Name nm)) (Axis.nodes axis n)
      in
      ids (Axis.step Axis.Descendant (Axis.Name nm) n)
      = ids (reference Axis.Descendant)
      && ids (Axis.step Axis.Descendant_or_self (Axis.Name nm) n)
         = ids (reference Axis.Descendant_or_self)
      && ids (Axis.step Axis.Child (Axis.Name nm) n)
         = ids (reference Axis.Child))

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let raises_type_error who f =
  try
    ignore (f ());
    false
  with Atom.Type_error msg -> contains msg who

let test_atom_type_errors () =
  let atom = [ Item.atom (Atom.Int 1) ] in
  let nodes = seq_of_idxs [ 0; 1 ] in
  check "ddo on atoms" true
    (raises_type_error "fs:ddo" (fun () -> Item.ddo atom));
  check "union on atoms" true
    (raises_type_error "union" (fun () -> Item.union nodes atom));
  check "except on atoms" true
    (raises_type_error "except" (fun () -> Item.except atom nodes));
  check "intersect on atoms" true
    (raises_type_error "intersect" (fun () -> Item.intersect nodes atom));
  check "accumulator on atoms" true
    (raises_type_error "fixpoint" (fun () ->
         Accumulator.absorb (Accumulator.create ()) ~who:"fixpoint" atom))

let test_index_counters () =
  (* the descendant name step must actually hit the index *)
  let root = List.hd docs in
  let before = Counters.snapshot () in
  let hits = Axis.step Axis.Descendant (Axis.Name "leaf") root in
  let d = Counters.diff (Counters.snapshot ()) before in
  check "found leaves" true (List.length hits > 0);
  check "index used" true (d.Counters.index_steps >= 1);
  check "index produced the nodes" true
    (d.Counters.index_nodes >= List.length hits)

(* [child::x] from a node with more than 8 children, when more [x]s
   nest below than it has children: the step scans the children, and
   the name index is neither counted nor materialized. *)
let test_child_step_prefers_scan () =
  let x k = Node.E ("x", [ ("k", string_of_int k) ], []) in
  let root =
    Node.of_spec
      (Node.E
         ( "r", [],
           Node.E ("parents", [], List.init 20 (fun k -> x (100 + k)))
           :: List.init 9 (fun k -> x k) ))
  in
  let r = root.Node.children.(0) in
  let reference = List.filter (Axis.matches Axis.Child (Axis.Name "x")) (Node.children r) in
  let before = Counters.snapshot () in
  let hits = Axis.step Axis.Child (Axis.Name "x") r in
  let d = Counters.diff (Counters.snapshot ()) before in
  check "same answer" true (List.equal ( == ) hits reference);
  check "nine children" true (List.length hits = 9);
  check "no index step" true (d.Counters.index_steps = 0);
  check "no index nodes" true (d.Counters.index_nodes = 0)

let shuffle st arr =
  let a = Array.copy arr in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let test_atom_set_scale () =
  (* regression: set_equal on 10k-atom sequences was quadratic
     (pairwise membership); the keyed path must handle this instantly *)
  let st = Random.State.make [| 42 |] in
  let mk st =
    Array.to_list
      (shuffle st (Array.init 10_000 (fun i -> Item.atom (Atom.Str (Printf.sprintf "k%d" i)))))
  in
  let a = mk st and b = mk st in
  let t0 = Unix.gettimeofday () in
  check "10k sets equal" true (Item.set_equal a b);
  check "10k sets differ" false
    (Item.set_equal a (Item.atom (Atom.Str "extra") :: b));
  let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
  check ("10k set_equal under 2s, took " ^ string_of_float ms) true (ms < 2000.0)

let test_atom_set_crossover () =
  (* numeric strings mixed with numbers fall back to the (sound)
     pairwise path: equal_value is not transitive there *)
  let s l = List.map Item.atom l in
  check "1 = \"01\"" true
    (Item.set_equal (s [ Atom.Int 1 ]) (s [ Atom.Str "01" ]));
  check "\"1\" <> \"01\"" false
    (Item.set_equal (s [ Atom.Str "1" ]) (s [ Atom.Str "01" ]));
  check "dup collapse" true
    (Item.set_equal
       (s [ Atom.Int 2; Atom.Int 2; Atom.Str "x" ])
       (s [ Atom.Str "x"; Atom.Int 2 ]))

(* ------------------------------------------------------------------ *)
(* Node kernels on random documents                                    *)
(* ------------------------------------------------------------------ *)

(* Elements named p and q nest in each other (p/q/p, as hospital's
   patient/parents/patient does), with attributes, text, comments and
   processing instructions mixed in; one child list in five is wider
   than 8, where child steps may take the name index. *)
let gen_doc =
  let open QCheck2.Gen in
  let attrs =
    oneofl [ []; [ ("a", "1") ]; [ ("a", "x y"); ("b", "") ]; [ ("b", "z") ] ]
  in
  let leaf =
    oneof
      [ map (fun s -> Node.T s) (oneofl [ "t"; "u v"; "" ]);
        pure (Node.C "c"); pure (Node.P ("pi", "d"));
        map2 (fun n a -> Node.E (n, a, [])) (oneofl [ "p"; "q" ]) attrs ]
  in
  let width = frequency [ (4, int_bound 4); (1, int_range 9 12) ] in
  let rec tree depth =
    if depth = 0 then leaf
    else
      frequency
        [ (1, leaf);
          ( 3,
            map3
              (fun n a kids -> Node.E (n, a, kids))
              (oneofl [ "p"; "q" ]) attrs
              (list_size width (tree (depth - 1))) ) ]
  in
  map
    (fun kids -> Node.of_spec (Node.E ("root", [ ("a", "r") ], kids)))
    (int_range 1 4 >>= fun depth -> list_size width (tree depth))

let all_axes =
  Axis.
    [ Child; Descendant; Descendant_or_self; Parent; Ancestor; Ancestor_or_self;
      Self; Following_sibling; Preceding_sibling; Following; Preceding;
      Attribute ]

let all_tests =
  Axis.
    [ Name "p"; Name "*"; Name "a"; Kind_node; Kind_text; Kind_comment;
      Kind_pi; Kind_element (Some "q"); Kind_element None;
      Kind_attribute (Some "a"); Kind_attribute None; Kind_document ]

(* [Node.string_value] before text-only elements skipped the buffer. *)
let ref_string_value (n : Node.t) =
  match n.Node.kind with
  | Node.Text | Node.Comment | Node.Pi | Node.Attribute -> n.Node.content
  | Node.Element | Node.Document ->
    let buf = Buffer.create 16 in
    let rec go (n : Node.t) =
      match n.Node.kind with
      | Node.Text -> Buffer.add_string buf n.Node.content
      | Node.Element | Node.Document -> Array.iter go n.Node.children
      | _ -> ()
    in
    go n;
    Buffer.contents buf

(* [fn:id]'s tokenizer before [Node.id_tokens]. *)
let ref_id_tokens s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\n')
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

(* A fresh accumulator fed [batches] answers as set union and
   difference do, whatever order or duplicates the batches have. *)
let absorb_agrees batches =
  let acc = Accumulator.create () in
  let reference = ref [] in
  List.for_all
    (fun batch ->
      let (fresh, fresh_count, produced) =
        Accumulator.absorb acc ~who:"test" (List.map Item.node batch)
      in
      let expect_fresh = ref_except batch !reference in
      reference := ref_union !reference batch;
      ids_of_seq fresh = ids expect_fresh
      && fresh_count = List.length expect_fresh
      && produced = List.length batch
      && Accumulator.size acc = List.length !reference
      && ids_of_seq (Accumulator.to_seq acc) = ids !reference)
    batches

let prop_node_kernels =
  QCheck2.Test.make ~count:150 ~name:"node kernels = reference"
    QCheck2.Gen.(
      tup4 gen_doc
        (list_size (int_bound 10) nat)
        int
        (string_size ~gen:(oneofl [ 'a'; 'b'; ' '; '\n'; '\t'; '\r' ]) (int_bound 12)))
    (fun (doc, picks, seed, idrefs) ->
      let nodes = ref [] in
      Node.iter_subtree
        (fun n -> nodes := Array.to_list n.Node.attributes @ (n :: !nodes))
        doc;
      let pool = Array.of_list !nodes in
      (* context nodes in any order, duplicates included *)
      let ctx = List.map (fun i -> pool.(i mod Array.length pool)) picks in
      let reference axis test n =
        List.filter (Axis.matches axis test) (Axis.nodes axis n)
      in
      let st = Random.State.make [| seed |] in
      let shuffled = Array.to_list (shuffle st (Array.of_list (ctx @ ctx))) in
      let sorted = ref_ddo ctx in
      let ev = Fixq_lang.Eval.create () in
      (* the in-place walks answer as [step] does, and take the name
         index exactly when it does *)
      let walks_agree axis test n =
        let expect = reference axis test n in
        let counted f =
          let before = !Counters.index_steps in
          let r = f () in
          (r, !Counters.index_steps - before)
        in
        let even (m : Node.t) = m.Node.id mod 2 = 0 in
        let (_, by_step) = counted (fun () -> Axis.step axis test n) in
        let (folded, by_fold) =
          counted (fun () -> Axis.fold_step axis test n (fun () acc m -> m :: acc) () [])
        in
        let (found, by_exists) = counted (fun () -> Axis.exists_step axis test n even) in
        ids (List.rev folded) = ids expect
        && found = List.exists even expect
        && by_fold = by_step && by_exists = by_step
      in
      let path axis test =
        Fixq_lang.Eval.eval_expr ev
          ~vars:[ ("ctx", List.map Item.node ctx) ]
          (Fixq_lang.Ast.Path (Fixq_lang.Ast.Var "ctx", Fixq_lang.Ast.Axis_step { axis; test }))
      in
      List.for_all
        (fun axis ->
          List.for_all
            (fun test ->
              List.for_all (fun n -> ids (Axis.step axis test n) = ids (reference axis test n)) ctx
              && List.for_all (walks_agree axis test) ctx
              && ids_of_seq (path axis test)
                 = ids (ref_ddo (List.concat_map (reference axis test) ctx)))
            all_tests)
        all_axes
      && ids_of_seq (Item.ddo (List.map Item.node shuffled)) = ids sorted
      && ids (Item.sort_uniq_nodes shuffled) = ids sorted
      && (let s = List.map Item.node sorted in Item.ddo s == s)
      && Item.sort_uniq_nodes sorted == sorted
      && Array.for_all (fun n -> Node.string_value n = ref_string_value n) pool
      && absorb_agrees [ sorted; shuffled; List.concat_map (fun n -> [ n; n ]) sorted ]
      && absorb_agrees [ shuffled; sorted ]
      && Node.id_tokens idrefs = ref_id_tokens idrefs)

(* ------------------------------------------------------------------ *)

let qc = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "kernels"
    [ ( "properties",
        qc
          [ prop_kernels_match_reference;
            prop_doc_order;
            prop_accumulator;
            prop_indexed_step;
            prop_node_kernels ] );
      ( "units",
        [ Alcotest.test_case "atom type errors" `Quick test_atom_type_errors;
          Alcotest.test_case "index counters" `Quick test_index_counters;
          Alcotest.test_case "child step prefers the scan" `Quick
            test_child_step_prefers_scan;
          Alcotest.test_case "atom set 10k regression" `Quick
            test_atom_set_scale;
          Alcotest.test_case "atom set numeric crossover" `Quick
            test_atom_set_crossover ] ) ]
