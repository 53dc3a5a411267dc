(* The IFP semantics (Definition 2.1) and the Naïve/Delta algorithms
   (Figure 3): unit tests on the paper's examples, the Example 2.4
   iteration table, instrumentation, divergence, and the soundness
   property Naïve s= Delta for distributive bodies. *)

module Atom = Fixq_xdm.Atom
module Node = Fixq_xdm.Node
module Item = Fixq_xdm.Item
module Doc_registry = Fixq_xdm.Doc_registry
module Xml_parser = Fixq_xdm.Xml_parser
module Eval = Fixq_lang.Eval
module Fixpoint = Fixq_lang.Fixpoint
module Stats = Fixq_lang.Stats
module Parser = Fixq_lang.Parser

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let registry = Doc_registry.create ()

let curriculum =
  {|<!DOCTYPE curriculum [ <!ATTLIST course code ID #REQUIRED> ]>
<curriculum>
  <course code="c1"><prerequisites><pre_code>c2</pre_code><pre_code>c3</pre_code></prerequisites></course>
  <course code="c2"><prerequisites><pre_code>c4</pre_code></prerequisites></course>
  <course code="c3"><prerequisites/></course>
  <course code="c4"><prerequisites><pre_code>c2</pre_code></prerequisites></course>
</curriculum>|}

let () =
  Doc_registry.register ~registry "curriculum.xml"
    (Xml_parser.parse_string ~strip_whitespace:true curriculum)

let run ?(strategy = Eval.Auto) src =
  let ev = Eval.create ~registry ~strategy () in
  let r = Eval.run_string ev src in
  (r, ev)

let codes items =
  List.filter_map
    (function
      | Item.N n ->
        List.find_opt (fun a -> Node.name a = "code") (Node.attributes n)
        |> Option.map Node.string_value
      | Item.A _ -> None)
    items
  |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Q1 and the with…recurse form                                        *)
(* ------------------------------------------------------------------ *)

let q1 =
  {|with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c1"]
    recurse $x/id(./prerequisites/pre_code)|}

let test_q1_result () =
  let (r, _) = run q1 in
  Alcotest.(check (list string))
    "transitive prerequisites (via the c4→c2 cycle)"
    [ "c2"; "c3"; "c4" ] (codes r)

let test_q1_strategies_agree () =
  let (rn, _) = run ~strategy:Eval.Naive q1 in
  let (rd, _) = run ~strategy:Eval.Delta q1 in
  let (ra, _) = run ~strategy:Eval.Auto q1 in
  check "naive = delta" true (Item.set_equal rn rd);
  check "auto = naive" true (Item.set_equal rn ra)

let test_q1_auto_uses_delta () =
  let (_, ev) = run ~strategy:Eval.Auto q1 in
  check "auto selected Delta" true
    (Eval.last_ifp_used_delta ev = Some true)

let test_q1_delta_feeds_fewer () =
  let (_, evn) = run ~strategy:Eval.Naive q1 in
  let (_, evd) = run ~strategy:Eval.Delta q1 in
  check "delta feeds fewer nodes" true
    (Stats.nodes_fed (Eval.stats evd) < Stats.nodes_fed (Eval.stats evn));
  check_int "same depth" (Stats.depth (Eval.stats evn))
    (Stats.depth (Eval.stats evd))

let test_seed_not_included () =
  (* Definition 2.1: res₀ = e_rec(e_seed) — c1 itself is not in the
     result (it is not its own prerequisite). *)
  let (r, _) = run q1 in
  check "seed excluded" true (not (List.mem "c1" (codes r)))

let test_cycle_membership () =
  (* c2 sits on a cycle, so it IS among its own prerequisites *)
  let (r, _) =
    run
      {|with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c2"]
        recurse $x/id(./prerequisites/pre_code)|}
  in
  check "cycle member reaches itself" true (List.mem "c2" (codes r))

(* ------------------------------------------------------------------ *)
(* Example 2.4: Naïve and Delta disagree on Q2                         *)
(* ------------------------------------------------------------------ *)

let q2 =
  {|let $seed := (<a/>,<b><c><d/></c></b>)
    return with $x seeded by $seed
           recurse if (count($x/self::a)) then $x/* else ()|}

let test_q2_disagreement_def21 () =
  (* under the strict Definition 2.1 convention both compute from
     res₀ = e_rec(seed) = (c); the disagreement of Example 2.4 needs
     the seed-in-result convention (next test) *)
  let (rn, _) = run ~strategy:Eval.Naive q2 in
  let (rd, _) = run ~strategy:Eval.Delta q2 in
  check_int "def-2.1 naive" 1 (List.length rn);
  check_int "def-2.1 delta" 1 (List.length rd)

(* Reproduce the paper's iteration table by driving the algorithms
   directly with include_seed (res₀ = eseed). *)
let example_24 algo =
  let ev = Eval.create ~registry () in
  let seed_prog =
    Parser.parse_expr {|(<a/>,<b><c><d/></c></b>)|}
  in
  let seed = Eval.eval_expr ev seed_prog in
  let body_expr =
    Parser.parse_expr {|if (count($x/self::a)) then $x/* else ()|}
  in
  let body input = Eval.eval_expr ev ~vars:[ ("x", input) ] body_expr in
  let stats = Stats.create () in
  let result = algo ?include_seed:(Some true) ~stats ~body ~seed () in
  (result, stats)

let names_of items =
  List.filter_map
    (function Item.N n -> Some (Node.name n) | Item.A _ -> None)
    items
  |> List.sort compare

let test_example24_naive () =
  let (r, _) = example_24 (Fixpoint.naive ?max_iterations:None) in
  Alcotest.(check (list string))
    "Naïve computes (a,b,c,d)" [ "a"; "b"; "c"; "d" ] (names_of r)

let test_example24_delta () =
  let (r, _) = example_24 (Fixpoint.delta ?max_iterations:None) in
  Alcotest.(check (list string))
    "Delta computes (a,b,c) — d is missed" [ "a"; "b"; "c" ] (names_of r)

let test_example24_trace () =
  (* the paper's table: Delta's ∆ column is (a,b), (c), () *)
  let (_, stats) = example_24 (Fixpoint.delta ?max_iterations:None) in
  let fed = List.map (fun it -> it.Stats.fed) (Stats.last_run stats) in
  Alcotest.(check (list int)) "delta feeds ∆=(a,b) then ∆=(c)" [ 2; 1 ] fed

(* ------------------------------------------------------------------ *)
(* Direct algorithm-level tests                                        *)
(* ------------------------------------------------------------------ *)

let tree () =
  Xml_parser.parse_string ~strip_whitespace:true
    "<r><a><b><c/></b></a><a><b/></a></r>"

let children_body input =
  List.concat_map
    (function
      | Item.N n -> List.map Item.node (Node.children n)
      | Item.A _ -> [])
    input

let test_descendants_closure () =
  let doc = tree () in
  let stats = Stats.create () in
  let seed = [ Item.N (List.hd (Node.children doc)) ] in
  let r_naive = Fixpoint.naive ~stats ~body:children_body ~seed () in
  let r_delta = Fixpoint.delta ~stats ~body:children_body ~seed () in
  check "closure = descendants" true (Item.set_equal r_naive r_delta);
  check_int "all descendants of r" 5 (List.length r_naive)

let test_empty_seed () =
  let stats = Stats.create () in
  let r = Fixpoint.naive ~stats ~body:children_body ~seed:[] () in
  check_int "empty seed fixpoint" 0 (List.length r)

let test_divergence_guard () =
  (* a body that keeps constructing fresh nodes never converges *)
  let stats = Stats.create () in
  let body input =
    Item.N (Node.element "x" ~attrs:[] []) :: input
  in
  let doc = tree () in
  let seed = [ Item.N doc ] in
  check "diverges" true
    (try
       ignore (Fixpoint.naive ~max_iterations:50 ~stats ~body ~seed ());
       false
     with Fixpoint.Diverged _ -> true)

let test_stats_accounting () =
  let doc = tree () in
  let stats = Stats.create () in
  let seed = [ Item.N (List.hd (Node.children doc)) ] in
  ignore (Fixpoint.naive ~stats ~body:children_body ~seed ());
  (* naive: seed(1) + 2 + 6 + 6 = the trace; check internal consistency *)
  let trace = Stats.last_run stats in
  check_int "payload calls = trace length" (Stats.payload_calls stats)
    (List.length trace);
  check_int "nodes fed = sum of trace"
    (List.fold_left (fun acc it -> acc + it.Stats.fed) 0 trace)
    (Stats.nodes_fed stats);
  check "result grows monotonically" true
    (let sizes = List.map (fun it -> it.Stats.result_size) trace in
     List.sort compare sizes = sizes)

(* ------------------------------------------------------------------ *)
(* Section 7's divide-and-conquer: a distributive body applied to each  *)
(* part of a round's ∆ and unioned feeds the same nodes as applied to   *)
(* the whole ∆ (Theorem 3.2)                                            *)
(* ------------------------------------------------------------------ *)

let big_tree () =
  (* a wide, shallow tree so that every round splits into many parts *)
  let leaf i = Node.E ("leaf", [ ("k", string_of_int i) ], []) in
  let mid i =
    Node.E ("mid", [], List.init 40 (fun j -> leaf ((i * 40) + j)))
  in
  Xml_parser.parse_string ~strip_whitespace:true
    (Fixq_xdm.Serializer.to_string
       (Node.of_spec (Node.E ("root", [], List.init 30 mid))))

(* [split_body ~parts body] cuts each input into [parts] round-robin
   slices, applies [body] to each and returns the union of the
   results. *)
let split_body ~parts body input =
  let slice i = List.filteri (fun j _ -> j mod parts = i) input in
  Item.ddo (List.concat (List.init parts (fun i -> body (slice i))))

let test_parallel_delta_equivalence () =
  let doc = big_tree () in
  let seed = [ Item.N (List.hd (Node.children doc)) ] in
  let body input =
    List.concat_map
      (function
        | Item.N n -> List.map Item.node (Node.children n)
        | Item.A _ -> [])
      input
  in
  let stats_seq = Stats.create () in
  let sequential = Fixpoint.delta ~stats:stats_seq ~body ~seed () in
  let stats_par = Stats.create () in
  let parallel =
    Fixpoint.delta ~stats:stats_par ~body:(split_body ~parts:4 body) ~seed ()
  in
  check "split s= whole" true (Item.set_equal sequential parallel);
  check_int "same nodes fed" (Stats.nodes_fed stats_seq)
    (Stats.nodes_fed stats_par);
  check_int "same depth" (Stats.depth stats_seq) (Stats.depth stats_par)

let test_parallel_delta_single_domain () =
  (* one part is the whole ∆: plain Delta *)
  let doc = tree () in
  let seed = [ Item.N (List.hd (Node.children doc)) ] in
  let stats = Stats.create () in
  let r =
    Fixpoint.delta ~stats ~body:(split_body ~parts:1 children_body) ~seed ()
  in
  let stats2 = Stats.create () in
  let r2 = Fixpoint.delta ~stats:stats2 ~body:children_body ~seed () in
  check "one part = delta" true (Item.set_equal r r2);
  check_int "same nodes fed" (Stats.nodes_fed stats2) (Stats.nodes_fed stats)

let test_parallel_delta_through_eval () =
  (* a real XQuery body, evaluated once per part *)
  let registry = Doc_registry.create () in
  Doc_registry.register ~registry "t.xml" (big_tree ());
  let ev = Eval.create ~registry () in
  let body_expr = Parser.parse_expr "$x/*" in
  let body input = Eval.eval_expr ev ~vars:[ ("x", input) ] body_expr in
  let seed =
    Eval.eval_expr ev (Parser.parse_expr {|doc("t.xml")/root|})
  in
  let stats = Stats.create () in
  let par =
    Fixpoint.delta ~stats ~body:(split_body ~parts:3 body) ~seed ()
  in
  let seq = Fixpoint.delta ~stats ~body ~seed () in
  check "xquery body split s= whole" true (Item.set_equal par seq);
  check_int "descendants found" (30 + (30 * 40)) (List.length par)

(* The accumulator bitmap spans the ids a fixpoint touches, not every id
   the process has minted: after 2^22 throwaway nodes, a fixpoint over a
   small document stays small. *)
let test_bitmap_follows_ids () =
  for _ = 1 to 1 lsl 22 do
    ignore (Sys.opaque_identity (Node.text ""))
  done;
  let registry = Doc_registry.create () in
  Doc_registry.register ~registry "t.xml"
    (Xml_parser.parse_string "<r><a><b/></a><a><b/><b/></a></r>");
  let prog =
    Parser.parse_program {|with $x seeded by doc("t.xml")/r recurse $x/*|}
  in
  let ev = Eval.create ~registry () in
  let before = Gc.allocated_bytes () in
  let r = Eval.run_program ev prog in
  let bytes = Gc.allocated_bytes () -. before in
  check_int "closure" 5 (List.length r);
  check (Printf.sprintf "allocated %.0f bytes, want < 64 KB" bytes) true
    (bytes < 65536.)

(* ------------------------------------------------------------------ *)
(* Property: Naïve s= Delta for distributive (step) bodies             *)
(* ------------------------------------------------------------------ *)

let spec_gen =
  let open QCheck2.Gen in
  let names = oneofl [ "a"; "b"; "c" ] in
  sized
  @@ fix (fun self n ->
         if n <= 1 then return (Node.E ("leaf", [], []))
         else
           map2
             (fun name kids -> Node.E (name, [], kids))
             names
             (list_size (int_bound 3) (self (n / 2))))

(* random distributive bodies: unions of axis steps *)
let body_gen =
  let open QCheck2.Gen in
  let module Axis = Fixq_xdm.Axis in
  let step =
    oneofl
      [ (Axis.Child, Axis.Kind_node); (Axis.Child, Axis.Name "a");
        (Axis.Descendant, Axis.Name "b"); (Axis.Parent, Axis.Kind_node);
        (Axis.Following_sibling, Axis.Kind_node) ]
  in
  list_size (int_range 1 3) step

let prop_naive_eq_delta =
  QCheck2.Test.make ~count:120 ~name:"Naïve s= Delta on distributive bodies"
    QCheck2.Gen.(pair (map Node.of_spec spec_gen) body_gen)
    (fun (doc, steps) ->
      let module Axis = Fixq_xdm.Axis in
      let body input =
        let nodes = List.filter_map (function Item.N n -> Some n | _ -> None) input in
        List.concat_map
          (fun (axis, test) ->
            List.concat_map
              (fun n -> List.map Item.node (Axis.step axis test n))
              nodes)
          steps
      in
      let stats = Stats.create () in
      let seed = [ Item.N (List.hd (Node.children doc)) ] in
      let rn = Fixpoint.naive ~stats ~body ~seed () in
      let rd = Fixpoint.delta ~stats ~body ~seed () in
      Item.set_equal rn rd)

let () =
  Alcotest.run "fixpoint"
    [ ( "q1",
        [ Alcotest.test_case "result" `Quick test_q1_result;
          Alcotest.test_case "strategies agree" `Quick
            test_q1_strategies_agree;
          Alcotest.test_case "auto picks delta" `Quick
            test_q1_auto_uses_delta;
          Alcotest.test_case "delta feeds fewer" `Quick
            test_q1_delta_feeds_fewer;
          Alcotest.test_case "seed excluded" `Quick test_seed_not_included;
          Alcotest.test_case "cycles reach themselves" `Quick
            test_cycle_membership ] );
      ( "example-2.4",
        [ Alcotest.test_case "def-2.1 convention" `Quick
            test_q2_disagreement_def21;
          Alcotest.test_case "naive table" `Quick test_example24_naive;
          Alcotest.test_case "delta table" `Quick test_example24_delta;
          Alcotest.test_case "delta trace" `Quick test_example24_trace ] );
      ( "algorithms",
        [ Alcotest.test_case "descendant closure" `Quick
            test_descendants_closure;
          Alcotest.test_case "empty seed" `Quick test_empty_seed;
          Alcotest.test_case "divergence guard" `Quick test_divergence_guard;
          Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
          Alcotest.test_case "bitmap sized by touched ids" `Quick
            test_bitmap_follows_ids
        ] );
      ( "parallel",
        [ Alcotest.test_case "equivalence" `Quick
            test_parallel_delta_equivalence;
          Alcotest.test_case "single domain" `Quick
            test_parallel_delta_single_domain;
          Alcotest.test_case "xquery body" `Quick
            test_parallel_delta_through_eval ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_naive_eq_delta ] ) ]
