(* The public facade: engine selection, distributivity verdicts, plan
   capture, instrumentation reporting, and the paper's headline
   behaviours end-to-end. *)

module Node = Fixq_xdm.Node
module Item = Fixq_xdm.Item
module Doc_registry = Fixq_xdm.Doc_registry
module Xml_parser = Fixq_xdm.Xml_parser
module Parser = Fixq_lang.Parser
module Push = Fixq_algebra.Push

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
</curriculum>|})

let q1 =
  {|with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c1"]
    recurse $x/id(./prerequisites/pre_code)|}

let q1_unfolded =
  {|with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c1"]
    recurse
      for $c in doc("curriculum.xml")/curriculum/course
      where $c/@code = $x/prerequisites/pre_code
      return $c|}

let q2 =
  {|let $seed := (<a/>,<b><c><d/></c></b>)
    return with $x seeded by $seed
           recurse if (count($x/self::a)) then $x/* else ()|}

let engines =
  [ ("interp/naive", Fixq.Interpreter Fixq.Naive);
    ("interp/auto", Fixq.Interpreter Fixq.Auto);
    ("algebra/naive", Fixq.Algebra Fixq.Naive);
    ("algebra/auto", Fixq.Algebra Fixq.Auto) ]

let run engine src = Fixq.run ~registry ~engine src

(* ------------------------------------------------------------------ *)

let test_engines_agree_on_q1 () =
  let reference = (run (Fixq.Interpreter Fixq.Naive) q1).Fixq.result in
  check_int "three prerequisites" 3 (List.length reference);
  List.iter
    (fun (name, engine) ->
      if not (Item.set_equal reference (run engine q1).Fixq.result) then
        Alcotest.failf "%s disagrees on Q1" name)
    engines

let test_auto_uses_delta_on_q1 () =
  check "interp auto" true
    ((run (Fixq.Interpreter Fixq.Auto) q1).Fixq.used_delta = Some true);
  check "algebra auto" true
    ((run (Fixq.Algebra Fixq.Auto) q1).Fixq.used_delta = Some true);
  check "forced naive reports it" true
    ((run (Fixq.Interpreter Fixq.Naive) q1).Fixq.used_delta = Some false)

let test_delta_reduces_nodes_fed () =
  let naive = run (Fixq.Interpreter Fixq.Naive) q1 in
  let delta = run (Fixq.Interpreter Fixq.Auto) q1 in
  check "fewer nodes fed" true (delta.Fixq.nodes_fed < naive.Fixq.nodes_fed);
  check_int "same depth" naive.Fixq.depth delta.Fixq.depth;
  let alg_naive = run (Fixq.Algebra Fixq.Naive) q1 in
  let alg_delta = run (Fixq.Algebra Fixq.Auto) q1 in
  check "algebra too" true (alg_delta.Fixq.nodes_fed < alg_naive.Fixq.nodes_fed)

let test_q2_stays_naive_everywhere () =
  (* the guard of Theorem 3.2: no engine may trade Naïve for Delta *)
  List.iter
    (fun (name, engine) ->
      let r = run engine q2 in
      match engine with
      | Fixq.Interpreter Fixq.Auto | Fixq.Algebra Fixq.Auto ->
        if r.Fixq.used_delta <> Some false then
          Alcotest.failf "%s applied Delta to Q2" name
      | _ -> ())
    engines;
  (* and all engines agree on the (Definition 2.1) result *)
  let reference = (run (Fixq.Interpreter Fixq.Naive) q2).Fixq.result in
  List.iter
    (fun (name, engine) ->
      if
        List.length (run engine q2).Fixq.result <> List.length reference
      then Alcotest.failf "%s disagrees on Q2" name)
    engines

let test_forced_delta_unsound_flagged () =
  (* forcing Delta is allowed (research knob) and reports used_delta *)
  let r = run (Fixq.Interpreter Fixq.Delta) q1 in
  check "forced delta reported" true (r.Fixq.used_delta = Some true)

(* A positional predicate on a reverse-axis step counts nearest-first:
   from the third of three siblings, preceding-sibling::a[2] is the
   first, which has no preceding sibling. *)
let test_reverse_axis_position () =
  let reg = Doc_registry.create () in
  Doc_registry.register ~registry:reg "t.xml"
    (Xml_parser.parse_string {|<a k="0"><a k="0"/><a k="0"/><a k="0"/></a>|});
  let q =
    {|for $y in with $x seeded by doc("t.xml")//a
                recurse $x/preceding-sibling::a[2]
      return count($y/preceding-sibling::*)|}
  in
  List.iter
    (fun (name, engine) ->
      match (Fixq.run ~registry:reg ~engine q).Fixq.result with
      | [ Item.A a ] when Fixq_xdm.Atom.to_number a = 0. -> ()
      | r -> Alcotest.failf "%s: %d items, want [0]" name (List.length r))
    engines

(* A positional predicate numbers its sequence in sequence order. Over a
   comma sequence or a [for] result, which keep their order and their
   duplicates, that is not document order, so the algebra engine must
   not number it by the item column: such a site falls back to the
   interpreter, and every engine answers as the interpreter does. *)
let test_position_off_document_order () =
  let reg = Doc_registry.create () in
  Doc_registry.register ~registry:reg "t.xml"
    (Xml_parser.parse_string {|<r><a><b/></a></r>|});
  let answer engine q =
    Fixq_xdm.Serializer.seq_to_string (Fixq.run ~registry:reg ~engine q).Fixq.result
  in
  let all_engines =
    engines @ [ ("sql/naive", Fixq.Sql Fixq.Naive); ("sql/auto", Fixq.Sql Fixq.Auto) ]
  in
  let agree ?expect q =
    let reference = answer (Fixq.Interpreter Fixq.Naive) q in
    Option.iter (fun e -> Alcotest.(check string) ("interpreter: " ^ q) e reference) expect;
    List.iter
      (fun (name, engine) ->
        Alcotest.(check string) (name ^ ": " ^ q) reference (answer engine q))
      all_engines
  in
  agree ~expect:"<a><b/></a> <b/>"
    {|with $x seeded by doc("t.xml")/r/a recurse ($x/*, $x/..)[1]|};
  Doc_registry.register ~registry:reg "t.xml"
    (Xml_parser.parse_string
       {|<r k="0"><a k="1"><a k="3"><c k="4"/><b/></a><b k="2"/></a><b k="5"><a/></b></r>|});
  List.iter
    (fun body -> agree (Printf.sprintf {|with $x seeded by doc("t.xml")/r recurse %s|} body))
    [ "(for $v in $x/descendant::a return $v/*)[2]";
      "(for $v in $x/* return $x/child::*[2])[2]";
      "let $l := $x/* return ($l/@k/.., $x/@k/..)[1]" ]

let test_verdicts_q1 () =
  match Fixq.distributivity_verdicts ~registry (Parser.parse_program q1) with
  | Some (syn, alg) ->
    check "syntactic accepts Q1" true syn;
    check "algebraic accepts Q1" true (alg = Some true)
  | None -> Alcotest.fail "no IFP found"

let test_verdicts_section41 () =
  (* the paper's punchline: syntactic no, algebraic yes *)
  match
    Fixq.distributivity_verdicts ~registry (Parser.parse_program q1_unfolded)
  with
  | Some (syn, alg) ->
    check "syntactic rejects the unfolding" false syn;
    check "algebraic accepts it" true (alg = Some true)
  | None -> Alcotest.fail "no IFP found"

let test_verdicts_q2 () =
  match Fixq.distributivity_verdicts ~registry (Parser.parse_program q2) with
  | Some (syn, alg) ->
    check "syntactic rejects Q2" false syn;
    check "algebraic rejects Q2" true (alg = Some false)
  | None -> Alcotest.fail "no IFP found"

let test_section41_behaviour () =
  (* Figure 5 rejects the unfolding, the ∪ push-up accepts it, and
     either check licenses Delta (Theorem 3.2): every engine's Auto
     runs Delta, feeds back what forced Delta does — strictly less than
     Naive — and returns Naive's set *)
  let naive = run (Fixq.Interpreter Fixq.Naive) q1_unfolded in
  let delta = run (Fixq.Interpreter Fixq.Delta) q1_unfolded in
  let ri = run (Fixq.Interpreter Fixq.Auto) q1_unfolded in
  check "interpreter auto runs delta" true (ri.Fixq.used_delta = Some true);
  check "interpreter same set as naive" true
    (Item.set_equal ri.Fixq.result naive.Fixq.result);
  check_int "interpreter feeds as delta" delta.Fixq.nodes_fed ri.Fixq.nodes_fed;
  check "interpreter feeds fewer than naive" true
    (ri.Fixq.nodes_fed < naive.Fixq.nodes_fed);
  List.iter
    (fun (name, engine) ->
      let r = run engine q1_unfolded in
      check (name ^ " runs delta") true (r.Fixq.used_delta = Some true);
      check (name ^ " same set as naive") true
        (Item.set_equal r.Fixq.result naive.Fixq.result))
    [ ("algebra auto", Fixq.Algebra Fixq.Auto); ("sql auto", Fixq.Sql Fixq.Auto) ];
  (* an [accumulate by bool] site gets the same licence: both engines
     run it on the interpreter's semiring kernel *)
  let annotated = q1_unfolded ^ " accumulate by bool" in
  let naive_bool = run (Fixq.Interpreter Fixq.Naive) annotated in
  List.iter
    (fun (name, engine) ->
      let r = run engine annotated in
      check (name ^ " bool runs delta") true (r.Fixq.used_delta = Some true);
      check (name ^ " bool same set") true
        (Item.set_equal r.Fixq.result naive.Fixq.result);
      check (name ^ " bool feeds fewer") true
        (r.Fixq.nodes_fed < naive_bool.Fixq.nodes_fed))
    [ ("interpreter auto", Fixq.Interpreter Fixq.Auto);
      ("algebra auto", Fixq.Algebra Fixq.Auto) ]

let test_multi_ifp_second_site_licensed () =
  (* two sites: the prepared layer pins nothing for multi-IFP programs,
     so the unfolded second site is decided per site by Auto — which
     must still see the algebraic licence *)
  let q =
    Printf.sprintf
      {|count(with $y seeded by doc("curriculum.xml")/curriculum/course[@code="c2"]
             recurse $y/id(./prerequisites/pre_code)),
        count(%s)|}
      q1_unfolded
  in
  let naive = run (Fixq.Interpreter Fixq.Naive) q in
  List.iter
    (fun (name, engine) ->
      let r = run engine q in
      (* used_delta reports the last site run: the unfolded one *)
      check (name ^ ": unfolded site runs delta") true
        (r.Fixq.used_delta = Some true);
      check (name ^ ": same answer as naive") true
        (Item.deep_equal r.Fixq.result naive.Fixq.result);
      check (name ^ ": feeds fewer than naive") true
        (r.Fixq.nodes_fed < naive.Fixq.nodes_fed))
    [ ("interp", Fixq.Interpreter Fixq.Auto); ("algebra", Fixq.Algebra Fixq.Auto) ]

let test_plan_capture () =
  match Fixq.plan_of_first_ifp ~registry (Parser.parse_program q1) with
  | Some (fix_id, plan) ->
    let o = Push.check ~fix_id plan in
    check "captured plan distributive" true o.Push.distributive;
    check "plan renders" true
      (String.length (Fixq_algebra.Render.to_ascii plan) > 0)
  | None -> Alcotest.fail "no plan captured"

let test_fallback_reporting () =
  (* a body with a node constructor cannot be compiled: the algebra
     engine reports the fallback and still answers correctly *)
  let q =
    {|count(with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c1"]
      recurse ($x/id(./prerequisites/pre_code), <note/>))|}
  in
  (* constructors make the IFP diverge under Naive; bound the run *)
  let r =
    try
      Some
        (Fixq.run ~registry ~max_iterations:20
           ~engine:(Fixq.Algebra Fixq.Auto) q)
    with Fixq.Error _ -> None
  in
  (match r with
  | Some r -> check "fallback recorded" true (r.Fixq.fallbacks <> [])
  | None -> check "diverged (acceptable for a constructor body)" true true)

let test_stratified_end_to_end () =
  (* "prerequisites not already taken": x \ R with fixed R — naive by
     default, delta under the stratified flag, same answer *)
  let q =
    {|let $taken := doc("curriculum.xml")/curriculum/course[@code="c3"]
      return with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c1"]
             recurse ($x/id(./prerequisites/pre_code) except $taken)|}
  in
  let plain = Fixq.run ~registry ~engine:(Fixq.Interpreter Fixq.Auto) q in
  let strat =
    Fixq.run ~registry ~stratified:true ~engine:(Fixq.Interpreter Fixq.Auto) q
  in
  check "default: naive" true (plain.Fixq.used_delta = Some false);
  check "stratified: delta" true (strat.Fixq.used_delta = Some true);
  check "same result" true (Item.set_equal plain.Fixq.result strat.Fixq.result);
  let alg_strat =
    Fixq.run ~registry ~stratified:true ~engine:(Fixq.Algebra Fixq.Auto) q
  in
  check "algebra stratified: µ∆" true (alg_strat.Fixq.used_delta = Some true);
  check "algebra agrees" true
    (Item.set_equal plain.Fixq.result alg_strat.Fixq.result)

let test_no_ifp_query () =
  let r = run (Fixq.Interpreter Fixq.Auto) {|1 + 1|} in
  check "no delta flag" true (r.Fixq.used_delta = None);
  check_int "no recursion depth" 0 r.Fixq.depth;
  check "verdicts absent" true
    (Fixq.distributivity_verdicts ~registry (Parser.parse_program "1 + 1")
    = None)

let test_error_wrapping () =
  check "parse errors wrapped" true
    (try
       ignore (run (Fixq.Interpreter Fixq.Auto) "1 +");
       false
     with Fixq.Error _ -> true);
  check "eval errors wrapped" true
    (try
       ignore (run (Fixq.Interpreter Fixq.Auto) "$undefined");
       false
     with Fixq.Error _ -> true)

let test_wall_time_reported () =
  let r = run (Fixq.Interpreter Fixq.Auto) q1 in
  check "wall time non-negative" true (r.Fixq.wall_ms >= 0.0)

let test_ifp_inside_function () =
  (* the IFP site sits in a UDF body; its bindings come from the
     function scope — both engines must handle the compilation unit *)
  let q =
    {|declare function closure($seed) {
        with $x seeded by $seed recurse $x/id(./prerequisites/pre_code)
      };
      count(closure(doc("curriculum.xml")/curriculum/course[@code="c1"]))|}
  in
  let ri = run (Fixq.Interpreter Fixq.Auto) q in
  let ra = run (Fixq.Algebra Fixq.Auto) q in
  check "results agree" true (Item.set_equal ri.Fixq.result ra.Fixq.result);
  check "both used delta" true
    (ri.Fixq.used_delta = Some true && ra.Fixq.used_delta = Some true)

let test_ifp_seeded_by_ifp () =
  (* an IFP whose seed is itself an IFP (nested at seed position is
     fine; only nested bodies are out of scope) *)
  let q =
    {|count(with $y seeded by
             (with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c1"]
              recurse $x/id(./prerequisites/pre_code))
           recurse $y/id(./prerequisites/pre_code))|}
  in
  List.iter
    (fun (name, engine) ->
      let r = run engine q in
      match r.Fixq.result with
      | [ Item.A (Fixq_xdm.Atom.Int n) ] ->
        (* inner closure of c1 = {c2,c3,c4}; their joint prerequisite
           closure is just {c4} *)
        if n <> 1 then Alcotest.failf "%s: expected 1, got %d" name n
      | _ -> Alcotest.failf "%s: unexpected result" name)
    engines

let test_repeated_site_uses_cache () =
  (* one IFP site evaluated many times (per course): the algebra engine
     compiles once and reuses the plan; results must match the
     interpreter *)
  let q =
    {|count(for $c in doc("curriculum.xml")/curriculum/course
           return count(with $x seeded by $c
                        recurse $x/id(./prerequisites/pre_code)))|}
  in
  let ri = run (Fixq.Interpreter Fixq.Auto) q in
  let ra = run (Fixq.Algebra Fixq.Auto) q in
  check "per-course fixpoints agree" true
    (Item.deep_equal ri.Fixq.result ra.Fixq.result)

(* ------------------------------------------------------------------ *)
(* Property: engines agree on random IFP queries                       *)
(* ------------------------------------------------------------------ *)

let tree_gen =
  let open QCheck2.Gen in
  let names = oneofl [ "a"; "b"; "c" ] in
  let spec =
    sized_size (int_bound 24)
    @@ QCheck2.Gen.fix (fun self n ->
           if n <= 1 then
             map
               (fun k -> Node.E ("leaf", [ ("k", string_of_int k) ], []))
               (int_bound 2)
           else
             map2
               (fun name kids -> Node.E (name, [ ("k", "0") ], kids))
               names
               (list_size (int_bound 3) (self (n / 2))))
  in
  map (fun s -> Node.of_spec s) spec

(* random recursion bodies over $x: mixes distributive and
   non-distributive shapes; engines must agree regardless (Auto only
   applies Delta when its check passes). The second group gives the
   interpreter loop-invariant operands to evaluate once (a hashed [=]
   among them), positional child and sibling steps it answers from the
   children array, and a division by zero behind a guard that never
   holds. The third group chains bare steps, through attributes and
   [..//], which the interpreter maps node to node. The fourth gives
   the staged evaluator's boolean mode predicates, comparisons read in
   place, positions, binders and a user-function body. The last
   number comma sequences and [for] results, which are not in document
   order. *)
let body_gen =
  QCheck2.Gen.oneofl
    [ "$x/*"; "$x/a"; "$x/a union $x/b"; "$x/.."; "$x/descendant::b";
      "($x/a, $x/c)"; {|$x/*[@k = "0"]|}; "$x/self::a/*";
      "for $v in $x return $v/*"; "if (count($x) > 2) then $x/* else $x/a";
      "$x/* except $x/leaf";
      "for $v in $x/* where $v/@k = $x/@k return $v";
      "$x/*[@k = $x/../@k]"; "$x/*[@k = $x/@k][2]";
      "$x/following-sibling::*[1]"; "$x/preceding-sibling::a[2]";
      "$x/child::*[2]"; "for $v in $x/* return $v/following-sibling::*[1]";
      {|for $v in $x/* return if ($v/@k = "9") then (1 div 0) else $v|};
      {|$x/*[if (@k = "9") then (1 div 0) else true()]|};
      "$x/*/a"; "$x/a/*/leaf"; "$x/*/@k/.."; "$x/@k/../b"; "$x/..//a";
      "$x/..//*/leaf"; "$x/../../*/*";
      "$x/*[not(a)]"; {|$x/*[a = ""]|}; {|$x/*[*/@k = "2"]|};
      "for $v in $x return $v/*[a != $v/b]";
      "for $v in $x return $v/*[@k != $v/@k]"; "$x/*[exists(b)]";
      "$x/*[@k]"; "$x/*[1]"; "($x/*)[1]"; "$x/*/*[last()]";
      "$x/*[position() < 3]"; "for $v in $x/* where exists($v/b) return $v";
      {|$x/*[some $c in * satisfies $c/@k = "1"]|};
      {|$x/*[every $c in * satisfies $c/@k = "0"]|};
      "let $k := $x/@k return $x/*[@k = $k]";
      "for $v in $x return for $w in $v/* return $w/*"; "f($x)";
      "($x/*, $x/..)[1]"; "($x/a, $x/*)[2]";
      "(for $v in $x/* return $v/..)[2]";
      "(for $v in $x/descendant::a return $v/*)[2]" ]

(* the user function [f] a body may call *)
let prolog body =
  if String.starts_with ~prefix:"f(" body then
    {|declare function f($n as node()*) as node()* { $n/*[not(@k = "2")] };
|}
  else ""

let seed_gen = QCheck2.Gen.oneofl [ "/*"; "//a"; "/*/*"; "//leaf" ]

let prop_engines_agree =
  QCheck2.Test.make ~count:120 ~name:"engines agree on random IFP queries"
    QCheck2.Gen.(triple tree_gen body_gen seed_gen)
    (fun (doc, body, seed) ->
      let reg = Doc_registry.create () in
      Doc_registry.register ~registry:reg "t.xml" doc;
      let q =
        Printf.sprintf
          {|%swith $x seeded by doc("t.xml")%s recurse %s|} (prolog body) seed body
      in
      let result engine = (Fixq.run ~registry:reg ~engine q).Fixq.result in
      let reference = result (Fixq.Interpreter Fixq.Naive) in
      Item.set_equal reference (result (Fixq.Interpreter Fixq.Auto))
      && Item.set_equal reference (result (Fixq.Algebra Fixq.Naive))
      && Item.set_equal reference (result (Fixq.Algebra Fixq.Auto)))

let () =
  Alcotest.run "engines"
    [ ( "agreement",
        [ Alcotest.test_case "all engines on Q1" `Quick
            test_engines_agree_on_q1;
          Alcotest.test_case "auto picks delta" `Quick
            test_auto_uses_delta_on_q1;
          Alcotest.test_case "delta reduces feeding" `Quick
            test_delta_reduces_nodes_fed;
          Alcotest.test_case "Q2 stays naive" `Quick
            test_q2_stays_naive_everywhere;
          Alcotest.test_case "forced delta" `Quick
            test_forced_delta_unsound_flagged;
          Alcotest.test_case "reverse-axis position" `Quick
            test_reverse_axis_position;
          Alcotest.test_case "position off document order" `Quick
            test_position_off_document_order ] );
      ( "verdicts",
        [ Alcotest.test_case "Q1" `Quick test_verdicts_q1;
          Alcotest.test_case "section 4.1" `Quick test_verdicts_section41;
          Alcotest.test_case "Q2" `Quick test_verdicts_q2;
          Alcotest.test_case "section 4.1 behaviour" `Quick
            test_section41_behaviour;
          Alcotest.test_case "plan capture" `Quick test_plan_capture ] );
      ( "sites",
        [ Alcotest.test_case "IFP in a function body" `Quick
            test_ifp_inside_function;
          Alcotest.test_case "IFP seeding an IFP" `Quick
            test_ifp_seeded_by_ifp;
          Alcotest.test_case "repeated sites" `Quick
            test_repeated_site_uses_cache;
          Alcotest.test_case "licensed second site" `Quick
            test_multi_ifp_second_site_licensed ] );
      ( "reporting",
        [ Alcotest.test_case "stratified end-to-end" `Quick
            test_stratified_end_to_end;
          Alcotest.test_case "fallbacks" `Quick test_fallback_reporting;
          Alcotest.test_case "no-IFP queries" `Quick test_no_ifp_query;
          Alcotest.test_case "errors" `Quick test_error_wrapping;
          Alcotest.test_case "wall time" `Quick test_wall_time_reported ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_engines_agree ]) ]
