(* The Relational XQuery substrate: relations, plan evaluation, the
   loop-lifting compiler (differential against the interpreter), µ/µ∆
   and the algebraic ∪ push-up (Table 1, Figures 7–9). *)

module Atom = Fixq_xdm.Atom
module Node = Fixq_xdm.Node
module Item = Fixq_xdm.Item
module Axis = Fixq_xdm.Axis
module Doc_registry = Fixq_xdm.Doc_registry
module Xml_parser = Fixq_xdm.Xml_parser
module Parser = Fixq_lang.Parser
module Eval = Fixq_lang.Eval
module Stats = Fixq_lang.Stats
module Value = Fixq_algebra.Value
module Relation = Fixq_algebra.Relation
module Plan = Fixq_algebra.Plan
module Plan_eval = Fixq_algebra.Plan_eval
module Compile = Fixq_algebra.Compile
module Push = Fixq_algebra.Push
module Optimize = Fixq_algebra.Optimize
module Render = Fixq_algebra.Render

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let registry = Doc_registry.create ()

let () =
  Doc_registry.register ~registry "curriculum.xml"
    (Xml_parser.parse_string ~strip_whitespace:true
       {|<!DOCTYPE curriculum [ <!ATTLIST course code ID #REQUIRED> ]>
<curriculum>
  <course code="c1"><prerequisites><pre_code>c2</pre_code><pre_code>c3</pre_code></prerequisites></course>
  <course code="c2"><prerequisites><pre_code>c4</pre_code></prerequisites></course>
  <course code="c3"><prerequisites/></course>
  <course code="c4"><prerequisites/></course>
</curriculum>|});
  Doc_registry.register ~registry "small.xml"
    (Xml_parser.parse_string ~strip_whitespace:true
       {|<r><a k="1"><b>x</b></a><a k="2"><b>y</b><b>z</b></a><c k="1"/></r>|})

let pe () = Plan_eval.create ~registry ~stats:(Stats.create ()) ()

(* ------------------------------------------------------------------ *)
(* Relations                                                           *)
(* ------------------------------------------------------------------ *)

let rel schema rows = Relation.create schema rows

let test_relation_basics () =
  let r = rel [ "a"; "b" ] [ [| Value.Int 1; Value.Str "x" |] ] in
  check_int "cardinal" 1 (Relation.cardinal r);
  check "get" true (Relation.get r (List.hd (Relation.rows r)) "b" = Value.Str "x");
  check "bad width rejected" true
    (try
       ignore (rel [ "a" ] [ [| Value.Int 1; Value.Int 2 |] ]);
       false
     with Invalid_argument _ -> true)

let test_relation_setops () =
  let r =
    rel [ "a" ]
      [ [| Value.Int 1 |]; [| Value.Int 2 |]; [| Value.Int 1 |] ]
  in
  check_int "distinct" 2 (Relation.cardinal (Relation.distinct r));
  let s = rel [ "a" ] [ [| Value.Int 1 |] ] in
  check_int "difference removes one occurrence" 2
    (Relation.cardinal (Relation.difference r s));
  check_int "union is bag union" 4
    (Relation.cardinal (Relation.union r s))

let test_relation_join () =
  let l = rel [ "k"; "x" ] [ [| Value.Int 1; Value.Str "a" |]; [| Value.Int 2; Value.Str "b" |] ] in
  let r = rel [ "k"; "y" ] [ [| Value.Int 1; Value.Str "c" |]; [| Value.Int 1; Value.Str "d" |] ] in
  let j = Relation.equi_join [ ("k", "k") ] l r in
  check_int "join cardinality" 2 (Relation.cardinal j);
  check "clash renamed" true (Relation.schema j = [ "k"; "x"; "k'"; "y" ]);
  let c = Relation.cross l r in
  check_int "cross" 4 (Relation.cardinal c)

let test_relation_group_number () =
  let r =
    rel [ "g"; "v" ]
      [ [| Value.Int 1; Value.Int 10 |]; [| Value.Int 1; Value.Int 30 |];
        [| Value.Int 2; Value.Int 20 |] ]
  in
  let counts = Relation.group_count ~partition:(Some "g") ~result:"n" r in
  check_int "two groups" 2 (Relation.cardinal counts);
  let numbered = Relation.number ~order:[ "v" ] ~partition:(Some "g") ~result:"rk" r in
  let ranks =
    List.map (fun row -> Relation.get numbered row "rk") (Relation.rows numbered)
  in
  check "ranks per group" true
    (List.sort compare ranks = [ Value.Int 1; Value.Int 1; Value.Int 2 ])

(* ------------------------------------------------------------------ *)
(* Plan evaluation                                                     *)
(* ------------------------------------------------------------------ *)

let test_plan_schema_check () =
  check "bad projection rejected" true
    (try
       ignore (Plan.schema_of (Plan.Project ([ ("x", "nope") ], Plan.Doc "u")));
       false
     with Invalid_argument _ -> true);
  check "doc schema" true (Plan.schema_of (Plan.Doc "u") = [ "item" ])

let test_plan_step () =
  let doc = Option.get (Doc_registry.find ~registry "small.xml") in
  let plan =
    Plan.Step
      ( Axis.Descendant, Axis.Name "b", "item",
        Plan.Lit_table ([ "iter"; "item" ], [ [| Value.Int 1; Value.Nd doc |] ]) )
  in
  let out = Plan_eval.run (pe ()) plan in
  check_int "descendant b" 3 (Relation.cardinal out)

(* Trees built by a query have no URI: their encodings (and the step
   memos inside) are kept by the engine instance that built them, not
   process-wide, and a seed spanning many such trees encodes each once. *)
let test_plan_constructed_trees () =
  let spec = Node.E ("r", [], [ Node.E ("a", [], [ Node.E ("b", [], []) ]); Node.E ("a", [], []) ]) in
  let roots = List.init 100 (fun _ -> Node.of_spec spec) in
  let fix_id = Plan.fresh_fix_id () in
  let body =
    Plan.Distinct
      (Plan.Step (Axis.Child, Axis.Kind_node, "item", Plan.Fix_ref (fix_id, [ "iter"; "item" ])))
  in
  let seed =
    Plan.Lit_table
      ([ "iter"; "item" ], List.map (fun r -> [| Value.Int 1; Value.Nd r |]) roots)
  in
  let global = Fixq_store.Encoding.cached_step_entries () in
  let run plan = Relation.cardinal (Plan_eval.run (pe ()) plan) in
  let naive = run (Plan.Mu { Plan.fix_id; seed; body }) in
  let delta = run (Plan.Mu_delta { Plan.fix_id; seed; body }) in
  check_int "closure: the descendants of every tree" (100 * 4) naive;
  check_int "µ∆ agrees" naive delta;
  check_int "no process-wide step memo entries" global
    (Fixq_store.Encoding.cached_step_entries ())

let test_plan_mu_counts () =
  (* µ over a child-step body computes the descendant closure *)
  let doc = Option.get (Doc_registry.find ~registry "small.xml") in
  let fix_id = Plan.fresh_fix_id () in
  let body =
    Plan.Distinct
      (Plan.Step (Axis.Child, Axis.Kind_node, "item", Plan.Fix_ref (fix_id, [ "iter"; "item" ])))
  in
  let seed =
    Plan.Lit_table ([ "iter"; "item" ], [ [| Value.Int 1; Value.Nd doc |] ])
  in
  let stats = Stats.create () in
  let t = Plan_eval.create ~registry ~stats () in
  let naive = Plan_eval.run t (Plan.Mu { Plan.fix_id; seed; body }) in
  let naive_fed = Stats.nodes_fed stats in
  let stats2 = Stats.create () in
  let t2 = Plan_eval.create ~registry ~stats:stats2 () in
  let delta = Plan_eval.run t2 (Plan.Mu_delta { Plan.fix_id; seed; body }) in
  check_int "closure size equal" (Relation.cardinal naive) (Relation.cardinal delta);
  check "delta feeds fewer tuples" true (Stats.nodes_fed stats2 < naive_fed)

let test_theta_join () =
  let l = rel [ "iter"; "v" ] [ [| Value.Int 1; Value.Int 5 |]; [| Value.Int 1; Value.Int 9 |] ] in
  let r = rel [ "iter"; "w" ] [ [| Value.Int 1; Value.Int 7 |] ] in
  let plan =
    Plan.Join
      ( { Plan.equi = [ ("iter", "iter") ];
          theta = [ ("v", Plan.Clt, "w") ] },
        Plan.Lit_table ([ "iter"; "v" ], Relation.rows l),
        Plan.Lit_table ([ "iter"; "w" ], Relation.rows r) )
  in
  check_int "theta filters" 1 (Relation.cardinal (Plan_eval.run (pe ()) plan))

let test_aggregates () =
  let data =
    Plan.Lit_table
      ( [ "iter"; "item" ],
        [ [| Value.Int 1; Value.Int 5 |]; [| Value.Int 1; Value.Int 7 |];
          [| Value.Int 2; Value.Int 3 |] ] )
  in
  let run_agg agg =
    let spec =
      { Plan.agg_result = "v"; agg_input = Some "item";
        agg_partition = Some "iter" }
    in
    Plan_eval.run (pe ()) (Plan.Aggr (agg, spec, data))
  in
  let sums = run_agg Plan.A_sum in
  check_int "two groups" 2 (Relation.cardinal sums);
  let vals rel =
    List.map (fun row -> Relation.get rel row "v") (Relation.rows rel)
    |> List.sort compare
  in
  check "sum values" true (vals sums = [ Value.Dbl 3.0; Value.Dbl 12.0 ]);
  check "max values" true
    (vals (run_agg Plan.A_max) = [ Value.Int 3; Value.Int 7 ]);
  check "min values" true
    (vals (run_agg Plan.A_min) = [ Value.Int 3; Value.Int 5 ])

let test_row_num_partition () =
  let data =
    Plan.Lit_table
      ( [ "iter"; "item" ],
        [ [| Value.Int 1; Value.Int 30 |]; [| Value.Int 1; Value.Int 10 |];
          [| Value.Int 2; Value.Int 20 |] ] )
  in
  let spec =
    { Plan.num_result = "rk"; num_order = [ "item" ];
      num_partition = Some "iter" }
  in
  let out = Plan_eval.run (pe ()) (Plan.Row_num (spec, data)) in
  let pairs =
    List.map
      (fun row -> (Relation.get out row "item", Relation.get out row "rk"))
      (Relation.rows out)
    |> List.sort compare
  in
  check "ranks ordered per partition" true
    (pairs
    = [ (Value.Int 10, Value.Int 1); (Value.Int 20, Value.Int 1);
        (Value.Int 30, Value.Int 2) ])

let test_value_module () =
  check "key distinguishes kinds" true
    (Value.key (Value.Int 1) <> Value.key (Value.Str "1"));
  check "compare_value promotes" true
    (Value.compare_value (Value.Str "3") (Value.Int 3) = 0);
  check "to_bool of node is EBV-ish" true
    (Value.to_bool (Value.Str "x"));
  check "as_node rejects atoms" true
    (try
       ignore (Value.as_node "t" (Value.Int 1));
       false
     with Fixq_xdm.Atom.Type_error _ -> true)

let test_construct_rejected () =
  check "ε evaluation is refused" true
    (try
       ignore
         (Plan_eval.run (pe ())
            (Plan.Construct ("element", Plan.Lit_table ([ "iter"; "item" ], []))));
       false
     with Plan_eval.Error _ -> true)

let test_mu_multi_iteration_lockstep () =
  (* the algebraic route's selling point: one µ advances the fixpoints
     of MANY outer iterations in lock-step, because iter is part of
     every tuple. Two iterations seeded with different subtrees must
     stay isolated. *)
  let doc = Option.get (Doc_registry.find ~registry "small.xml") in
  let root = List.hd (Node.children doc) in
  let kids = Node.children root in
  let a1 = List.nth kids 0 and a2 = List.nth kids 1 in
  let fix_id = Plan.fresh_fix_id () in
  let body =
    Plan.Distinct
      (Plan.Step
         (Axis.Child, Axis.Kind_node, "item",
          Plan.Fix_ref (fix_id, [ "iter"; "item" ])))
  in
  let seed =
    Plan.Lit_table
      ( [ "iter"; "item" ],
        [ [| Value.Int 1; Value.Nd a1 |]; [| Value.Int 2; Value.Nd a2 |] ] )
  in
  let rel = Plan_eval.run (pe ()) (Plan.Mu_delta { Plan.fix_id; seed; body }) in
  (* each iter's closure = descendants of its own seed *)
  let per_iter k =
    List.filter
      (fun row -> Relation.get rel row "iter" = Value.Int k)
      (Relation.rows rel)
    |> List.length
  in
  check_int "iter 1 sees a1's descendants" (Node.subtree_size a1 - 1)
    (per_iter 1);
  check_int "iter 2 sees a2's descendants" (Node.subtree_size a2 - 1)
    (per_iter 2);
  (* and no cross-contamination: total = sum *)
  check_int "iterations are isolated"
    (Node.subtree_size a1 - 1 + (Node.subtree_size a2 - 1))
    (Relation.cardinal rel)

(* ------------------------------------------------------------------ *)
(* Compiler differential vs interpreter                                *)
(* ------------------------------------------------------------------ *)

let interp_expr ?(vars = []) src =
  let ev = Eval.create ~registry () in
  Eval.eval_expr ev ~vars (Parser.parse_expr src)

let algebra_expr ?(bindings = []) src =
  let plan =
    Compile.expr ~functions:(Hashtbl.create 0) ~bindings
      (Parser.parse_expr src)
  in
  Compile.result_items (Plan_eval.run (pe ()) plan)

let differential msg ?vars src =
  let i = interp_expr ?vars src in
  let a = algebra_expr ?bindings:vars src in
  if not (Item.set_equal i a) then
    Alcotest.failf "%s: interpreter and algebra disagree on %s" msg src

let test_compile_differential_corpus () =
  List.iter
    (fun src -> differential "corpus" src)
    [ {|doc("small.xml")/r/a|};
      {|doc("small.xml")//b|};
      {|doc("small.xml")/r/a/@k|};
      {|doc("small.xml")//a[@k = "1"]|};
      {|doc("small.xml")//a[b = "y"]|};
      {|for $a in doc("small.xml")//a return $a/b|};
      {|for $a in doc("small.xml")//a where $a/@k = "2" return $a/b|};
      {|let $d := doc("small.xml") return $d//b|};
      {|doc("small.xml")//a union doc("small.xml")//c|};
      {|doc("small.xml")//* except doc("small.xml")//b|};
      {|doc("small.xml")//a intersect doc("small.xml")/r/*|};
      {|count(doc("small.xml")//b)|};
      {|if (exists(doc("small.xml")//c)) then doc("small.xml")//b else ()|};
      {|doc("small.xml")//a[1]|};
      {|doc("small.xml")//b[2]|};
      {|data(doc("small.xml")//a/@k)|};
      {|distinct-values(doc("small.xml")//@k)|};
      {|some $a in doc("small.xml")//a satisfies $a/@k = "2"|};
      {|every $a in doc("small.xml")//a satisfies exists($a/b)|};
      {|doc("curriculum.xml")/id("c2 c3")|};
      {|sum(data(doc("small.xml")//@k))|};
      {|max(data(doc("small.xml")//@k))|};
      {|min(data(doc("small.xml")//@k))|};
      {|doc("small.xml")//a/ancestor::r|};
      {|doc("small.xml")//b/parent::a|};
      {|doc("small.xml")//a/following-sibling::*|};
      {|doc("small.xml")//c/preceding-sibling::a|};
      {|doc("small.xml")//b/../@k|};
      {|not(empty(doc("small.xml")//c))|};
      {|boolean(doc("small.xml")//nothing)|};
      {|doc("small.xml")//a[exists(b)]|};
      {|doc("small.xml")//a[b = "y" or @k = "1"]|};
      {|doc("small.xml")//a[b = "y" and @k = "2"]|};
      {|let $a := doc("small.xml")//a let $b := doc("small.xml")//b
        return $a union $b|};
      {|for $a in doc("small.xml")//a
        for $b in $a/b
        return $b|};
      {|name((doc("small.xml")//*)[1])|} ]

let test_compile_vars () =
  let doc = Option.get (Doc_registry.find ~registry "small.xml") in
  differential "bound variable" ~vars:[ ("d", [ Item.N doc ]) ] "$d//b"

let test_compile_unsupported () =
  let fails src =
    try
      ignore
        (Compile.expr ~functions:(Hashtbl.create 0) (Parser.parse_expr src));
      false
    with Compile.Unsupported _ -> true
  in
  check "constructors unsupported" true (fails "<a/>");
  check "position unsupported" true
    (fails {|doc("small.xml")//a[position() = last()]|});
  check "ranges unsupported" true (fails "1 to 3");
  check "dynamic doc unsupported" true (fails {|doc(concat("a", ".xml"))|})

(* ------------------------------------------------------------------ *)
(* Compiled bodies, µ/µ∆ and the ∪ push-up                             *)
(* ------------------------------------------------------------------ *)

let compile_body ?(bindings = []) var src =
  Compile.body ~functions:(Hashtbl.create 0) ~recursion_var:var ~bindings
    (Parser.parse_expr src)

let test_body_roundtrip () =
  let doc = Option.get (Doc_registry.find ~registry "curriculum.xml") in
  let c = compile_body "x" "$x/id(./prerequisites/pre_code)" in
  check "no leftover binding refs" true (c.Compile.binding_refs = []);
  (* drive one application manually *)
  let ev = Eval.create ~registry () in
  let seed =
    Eval.eval_expr ev ~context:(Item.N doc)
      (Parser.parse_expr {|/curriculum/course[@code = "c1"]|})
  in
  let out =
    Plan_eval.run_with (pe ())
      [ (c.Compile.fix_id, Compile.items_relation seed) ]
      c.Compile.body
  in
  check_int "direct prerequisites" 2 (Relation.cardinal out)

let test_push_q1 () =
  let c = compile_body "x" "$x/id(./prerequisites/pre_code)" in
  let o = Push.check ~fix_id:c.Compile.fix_id c.Compile.body in
  check "Q1 distributive" true o.Push.distributive;
  check "steps recorded" true (o.Push.steps <> []);
  (* the iteration template is crossed in one big step (Figure 7(b)) *)
  check "big step across the loop template" true
    (List.mem "«loop»" o.Push.steps);
  check "outcome pretty-prints" true
    (String.length (Format.asprintf "%a" Push.pp_outcome o) > 0)

let test_push_q2 () =
  let c = compile_body "x" "if (count($x/self::a)) then $x/* else ()" in
  let o = Push.check ~fix_id:c.Compile.fix_id c.Compile.body in
  check "Q2 blocked" false o.Push.distributive;
  check "blocked at the count aggregate" true
    (match o.Push.blocking with
    | Some b ->
      (* count blocks (Figure 9(b)) *)
      String.length b >= 5 && String.sub b 0 5 = "count"
    | None -> false)

let test_push_section41 () =
  let c =
    compile_body "x"
      {|for $c in doc("curriculum.xml")/curriculum/course
        where $c/@code = $x/prerequisites/pre_code
        return $c|}
  in
  let o = Push.check ~fix_id:c.Compile.fix_id c.Compile.body in
  check "unfolded id is algebraically distributive" true o.Push.distributive

let test_push_blockers () =
  let blocked src =
    let c = compile_body "x" src in
    not (Push.check ~fix_id:c.Compile.fix_id c.Compile.body).Push.distributive
  in
  check "except blocks" true (blocked "$x except doc(\"small.xml\")//a");
  check "count blocks" true (blocked "count($x)");
  check "positional rownum blocks" true (blocked "$x[1]");
  check "linearity violation blocks" true
    (blocked "for $v in $x return ($x, $v)");
  check "comparison blocks (difference in bool table)" true
    (blocked "if ($x = 10) then $x else doc(\"small.xml\")//a")

let test_push_stratified () =
  let c = compile_body "x" "$x/a except doc(\"small.xml\")//c" in
  let default_ = Push.check ~fix_id:c.Compile.fix_id c.Compile.body in
  let strat =
    Push.check ~stratified:true ~fix_id:c.Compile.fix_id c.Compile.body
  in
  check "difference blocks by default (Table 1)" false
    default_.Push.distributive;
  check "stratified refinement admits fixed RHS" true strat.Push.distributive;
  (* x on the right stays blocked even with the flag *)
  let c2 = compile_body "x" "doc(\"small.xml\")//a except $x" in
  check "fixed LHS, varying RHS still blocked" false
    (Push.check ~stratified:true ~fix_id:c2.Compile.fix_id c2.Compile.body)
      .Push.distributive

let test_push_allowances () =
  let ok src =
    let c = compile_body "x" src in
    (Push.check ~fix_id:c.Compile.fix_id c.Compile.body).Push.distributive
  in
  check "steps" true (ok "$x/a/b");
  check "union" true (ok "$x/a union $x/b");
  check "FOR1 through iteration" true
    (ok "for $v in doc(\"small.xml\")//a return $x/a");
  check "FOR2 big step" true (ok "for $v in $x return $v/a");
  check "filter itemwise" true (ok "$x[@k = \"1\"]");
  check "positional under a step is per-node" true (ok "$x/a[1]");
  check "body ignoring x is trivially distributive" true
    (ok "doc(\"small.xml\")//a")

let test_mu_delta_equivalence_on_q1 () =
  let doc = Option.get (Doc_registry.find ~registry "curriculum.xml") in
  let c = compile_body "x" "$x/id(./prerequisites/pre_code)" in
  let ev = Eval.create ~registry () in
  let seed_items =
    Eval.eval_expr ev ~context:(Item.N doc)
      (Parser.parse_expr {|/curriculum/course[@code = "c1"]|})
  in
  let fix sel =
    sel { Plan.fix_id = c.Compile.fix_id; seed = Compile.seed_table seed_items;
          body = c.Compile.body }
  in
  let run plan = Compile.result_items (Plan_eval.run (pe ()) plan) in
  let rn = run (fix (fun f -> Plan.Mu f)) in
  let rd = run (fix (fun f -> Plan.Mu_delta f)) in
  check "µ s= µ∆ on Q1" true (Item.set_equal rn rd);
  check_int "three prerequisites" 3 (List.length rn)

(* Table 1's Push? column, printed from the implementation *)
let test_table1_verdicts () =
  let dummy = Plan.Lit_table ([ "iter"; "item" ], []) in
  let fs = { Plan.fun_result = "v"; fun_args = [] } in
  let agg = { Plan.agg_result = "n"; agg_input = None; agg_partition = None } in
  let num = { Plan.num_result = "r"; num_order = []; num_partition = None } in
  let pushable =
    [ Plan.Project ([], dummy); Plan.Select ("item", dummy);
      Plan.Join ({ Plan.equi = []; theta = [] }, dummy, dummy);
      Plan.Cross (dummy, dummy); Plan.Union (dummy, dummy);
      Plan.Fun (Plan.P_not, fs, dummy); Plan.Tag ("t", dummy);
      Plan.Step (Axis.Child, Axis.Kind_node, "item", dummy) ]
  in
  let blocked =
    [ Plan.Distinct dummy; Plan.Difference (dummy, dummy);
      Plan.Aggr (Plan.A_count, agg, dummy); Plan.Row_num (num, dummy);
      Plan.Construct ("elem", dummy) ]
  in
  List.iter
    (fun p ->
      if not (Plan.push_through p) then
        Alcotest.failf "expected pushable: %s" (Plan.op_symbol p))
    pushable;
  List.iter
    (fun p ->
      if Plan.push_through p then
        Alcotest.failf "expected blocked: %s" (Plan.op_symbol p))
    blocked

let test_render () =
  let c = compile_body "x" "$x/a" in
  let ascii = Render.to_ascii c.Compile.body in
  check "ascii mentions the step" true
    (String.length ascii > 0
    && (try
          ignore (String.index ascii 'c');
          true
        with Not_found -> false));
  let dot = Render.to_dot c.Compile.body in
  check "dot is a digraph" true (String.sub dot 0 7 = "digraph");
  check "summary mentions operators" true
    (String.length (Render.summary c.Compile.body) > 0)

(* ------------------------------------------------------------------ *)
(* Optimizer                                                           *)
(* ------------------------------------------------------------------ *)

let test_optimize_rules () =
  let lit =
    (* two rows: a 0/1-row literal is trivially distinct and the
       optimizer would drop the δ entirely. *)
    Plan.Lit_table
      ( [ "iter"; "item" ],
        [ [| Value.Int 1; Value.Int 1 |]; [| Value.Int 1; Value.Int 2 |] ] )
  in
  let payload =
    Plan.Step (Axis.Child, Axis.Kind_node, "item", Plan.Doc "small.xml")
  in
  ignore payload;
  let dd = Plan.Distinct (Plan.Distinct lit) in
  (match Optimize.optimize dd with
  | Plan.Distinct (Plan.Lit_table _) -> ()
  | other -> Alcotest.failf "δδ not collapsed: %s" (Render.summary other));
  (match Optimize.optimize (Plan.Distinct (Plan.Lit_table ([ "iter" ], []))) with
  | Plan.Lit_table _ -> ()
  | other ->
    Alcotest.failf "δ over empty literal not removed: %s"
      (Render.summary other));
  let pp_plan =
    Plan.Project
      ( [ ("x", "iter") ],
        Plan.Project ([ ("iter", "item"); ("item", "iter") ], lit) )
  in
  (match Optimize.optimize pp_plan with
  | Plan.Project ([ ("x", "item") ], Plan.Lit_table _) -> ()
  | other -> Alcotest.failf "ππ not fused: %s" (Render.summary other));
  (match
     Optimize.optimize (Plan.Union (Plan.Lit_table ([ "iter"; "item" ], []), lit))
   with
  | Plan.Lit_table _ | Plan.Project (_, Plan.Lit_table _) -> ()
  | other -> Alcotest.failf "∪ unit not removed: %s" (Render.summary other));
  (match
     Optimize.optimize
       (Plan.Join ({ Plan.equi = []; theta = [] }, lit, lit))
   with
  | Plan.Cross _ -> ()
  | other -> Alcotest.failf "keyless join not a ×: %s" (Render.summary other))

let test_optimize_preserves_semantics () =
  List.iter
    (fun src ->
      let plan =
        Compile.expr ~functions:(Hashtbl.create 0) (Parser.parse_expr src)
      in
      let before = Compile.result_items (Plan_eval.run (pe ()) plan) in
      let optimized = Optimize.optimize plan in
      let after = Compile.result_items (Plan_eval.run (pe ()) optimized) in
      if not (Item.set_equal before after) then
        Alcotest.failf "optimizer changed the result of %s" src)
    [ {|doc("small.xml")//a[@k = "1"]/b|};
      {|for $a in doc("small.xml")//a where $a/@k = "2" return $a/b|};
      {|count(doc("small.xml")//b)|};
      {|doc("small.xml")//a union doc("small.xml")//c|};
      {|doc("small.xml")//b[2]|};
      {|if (exists(doc("small.xml")//c)) then doc("small.xml")//b else ()|} ]

let test_optimize_preserves_push_verdict () =
  List.iter
    (fun (src, expected) ->
      let c = compile_body "x" src in
      let optimized = Optimize.optimize c.Compile.body in
      let v =
        (Push.check ~fix_id:c.Compile.fix_id optimized).Push.distributive
      in
      if v <> expected then
        Alcotest.failf "verdict changed after optimization on %s" src)
    [ ("$x/id(./prerequisites/pre_code)", true);
      ("if (count($x/self::a)) then $x/* else ()", false);
      ("$x/a union $x/b", true);
      ("count($x)", false) ]

(* Property: compiler differential on random path queries *)
let tree_gen =
  let open QCheck2.Gen in
  let names = oneofl [ "a"; "b"; "c" ] in
  let spec =
    sized
    @@ fix (fun self n ->
           if n <= 1 then
             map (fun k -> Node.E ("leaf", [ ("k", string_of_int k) ], []))
               (int_bound 3)
           else
             map2
               (fun name kids -> Node.E (name, [ ("k", "0") ], kids))
               names
               (list_size (int_bound 3) (self (n / 2))))
  in
  map (fun s -> Node.of_spec s) spec

let query_gen =
  QCheck2.Gen.oneofl
    [ "$d//a"; "$d//a/b"; "$d/*"; "$d//leaf/@k"; "$d//a[@k = \"0\"]";
      "for $v in $d//a return $v/b"; "count($d//leaf)";
      "$d//a union $d//b"; "$d//* except $d//leaf";
      "distinct-values($d//@k)"; "$d//b[1]";
      "if (exists($d//c)) then $d//a else $d//b" ]

let prop_optimizer_preserves =
  QCheck2.Test.make ~count:120
    ~name:"optimized plans evaluate identically" 
    QCheck2.Gen.(pair tree_gen query_gen)
    (fun (doc, src) ->
      let vars = [ ("d", [ Item.N doc ]) ] in
      let plan =
        Compile.expr ~functions:(Hashtbl.create 0) ~bindings:vars
          (Parser.parse_expr src)
      in
      let before = Compile.result_items (Plan_eval.run (pe ()) plan) in
      let after =
        Compile.result_items (Plan_eval.run (pe ()) (Optimize.optimize plan))
      in
      Item.set_equal before after)

let prop_compiler_differential =
  QCheck2.Test.make ~count:150 ~name:"algebra = interpreter on random docs"
    QCheck2.Gen.(pair tree_gen query_gen)
    (fun (doc, src) ->
      let vars = [ ("d", [ Item.N doc ]) ] in
      let i = interp_expr ~vars src in
      let a = algebra_expr ~bindings:vars src in
      Item.set_equal i a)

let () =
  Alcotest.run "algebra"
    [ ( "relations",
        [ Alcotest.test_case "basics" `Quick test_relation_basics;
          Alcotest.test_case "set ops" `Quick test_relation_setops;
          Alcotest.test_case "joins" `Quick test_relation_join;
          Alcotest.test_case "grouping/numbering" `Quick
            test_relation_group_number ] );
      ( "plans",
        [ Alcotest.test_case "schema checking" `Quick test_plan_schema_check;
          Alcotest.test_case "step operator" `Quick test_plan_step;
          Alcotest.test_case "theta joins" `Quick test_theta_join;
          Alcotest.test_case "aggregates" `Quick test_aggregates;
          Alcotest.test_case "row numbering" `Quick test_row_num_partition;
          Alcotest.test_case "values" `Quick test_value_module;
          Alcotest.test_case "constructors rejected" `Quick
            test_construct_rejected;
          Alcotest.test_case "µ vs µ∆ tuple counts" `Quick
            test_plan_mu_counts;
          Alcotest.test_case "steps over constructed trees" `Quick
            test_plan_constructed_trees;
          Alcotest.test_case "multi-iteration lock-step" `Quick
            test_mu_multi_iteration_lockstep ] );
      ( "compiler",
        [ Alcotest.test_case "differential corpus" `Quick
            test_compile_differential_corpus;
          Alcotest.test_case "bound variables" `Quick test_compile_vars;
          Alcotest.test_case "unsupported constructs" `Quick
            test_compile_unsupported;
          Alcotest.test_case "body roundtrip" `Quick test_body_roundtrip ] );
      ( "push-up",
        [ Alcotest.test_case "Q1" `Quick test_push_q1;
          Alcotest.test_case "Q2 (Figure 9)" `Quick test_push_q2;
          Alcotest.test_case "section 4.1" `Quick test_push_section41;
          Alcotest.test_case "blockers" `Quick test_push_blockers;
          Alcotest.test_case "stratified difference" `Quick
            test_push_stratified;
          Alcotest.test_case "allowances" `Quick test_push_allowances;
          Alcotest.test_case "µ/µ∆ equivalence" `Quick
            test_mu_delta_equivalence_on_q1;
          Alcotest.test_case "table 1 verdicts" `Quick test_table1_verdicts;
          Alcotest.test_case "render" `Quick test_render ] );
      ( "optimizer",
        [ Alcotest.test_case "rules" `Quick test_optimize_rules;
          Alcotest.test_case "semantics preserved" `Quick
            test_optimize_preserves_semantics;
          Alcotest.test_case "verdicts preserved" `Quick
            test_optimize_preserves_push_verdict ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_compiler_differential;
          QCheck_alcotest.to_alcotest prop_optimizer_preserves ] ) ]
