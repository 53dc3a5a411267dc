(* The fixq_analysis subsystem: source spans from the parser, located
   diagnostics with stable FQ0xx codes, lint rules, distributivity
   blame (rule + smallest blamed subexpression), divergence
   classification, the push-block → source mapping, and the
   --fix-hints repair loop (hint applied, both checkers re-confirm). *)

module Lang = Fixq_lang
module Parser = Lang.Parser
module Lexer = Lang.Lexer
module Analyze = Fixq_analysis.Analyze
module Diag = Fixq_analysis.Diag
module Push = Fixq_algebra.Push
module Xdm = Fixq_xdm

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let analyze ?(stratified = false) src =
  let (p, spans) = Parser.parse_program_spans src in
  (p, spans, Analyze.analyze ~stratified ~spans p)

let find_code code (a : Analyze.t) =
  List.find_opt (fun d -> d.Diag.code = code) a.Analyze.diagnostics

let has_code code a = find_code code a <> None

(* ------------------------------------------------------------------ *)
(* Lexer positions and parser spans                                    *)
(* ------------------------------------------------------------------ *)

let test_line_col_of () =
  checkb "start" true (Lexer.line_col_of "abc" 0 = (1, 1));
  checkb "same line" true (Lexer.line_col_of "abc" 2 = (1, 3));
  checkb "after newline" true (Lexer.line_col_of "ab\ncd" 3 = (2, 1));
  checkb "second line offset" true (Lexer.line_col_of "ab\ncd" 4 = (2, 2));
  checkb "clamped" true (Lexer.line_col_of "ab" 99 = (1, 3))

let test_spans_locate_nodes () =
  let src = "with $x seeded by /a recurse ($x/b except $x/c)" in
  let (p, spans) = Parser.parse_program_spans src in
  (* the IFP starts at the 'with' keyword *)
  checkb "ifp span" true
    (Parser.Spans.line_col spans p.Lang.Ast.main = Some (1, 1));
  (match p.Lang.Ast.main with
  | Lang.Ast.Ifp { body; _ } ->
    (* the except chain is noted at its first operand *)
    checkb "except span" true
      (Parser.Spans.line_col spans body = Some (1, 31))
  | _ -> Alcotest.fail "expected an IFP main");
  (* declaration sites *)
  let src2 = "declare function f($a) { $a };\ndeclare variable $g := 1;\nf($g)" in
  let (_, spans2) = Parser.parse_program_spans src2 in
  checkb "fun decl site" true
    (Parser.Spans.fun_line_col spans2 "f" = Some (1, 18));
  checkb "global decl site" true
    (Parser.Spans.global_line_col spans2 "g" = Some (2, 18))

let test_spans_constant_constructors_unspanned () =
  (* Root/()/.: immediate values shared across occurrences, no span *)
  let (p, spans) = Parser.parse_program_spans "()" in
  checkb "no span for ()" true
    (Parser.Spans.line_col spans p.Lang.Ast.main = None)

(* ------------------------------------------------------------------ *)
(* Lint rules                                                          *)
(* ------------------------------------------------------------------ *)

let test_unused_let () =
  let (_, _, a) = analyze "let $u := 1 return 2" in
  (match find_code "FQ020" a with
  | Some d ->
    checks "severity" "warning" (Diag.severity_string d.Diag.severity);
    checkb "located" true (d.Diag.loc = Some (1, 5))
  | None -> Alcotest.fail "expected FQ020");
  let (_, _, clean) = analyze "let $u := 1 return $u" in
  checkb "used let is clean" false (has_code "FQ020" clean)

let test_unused_for () =
  let (_, _, a) = analyze "for $i in (1, 2) return 3" in
  checkb "unused for" true (has_code "FQ021" a);
  let (_, _, pos) = analyze "for $i at $p in (1, 2) return $i" in
  (* the positional binding is the unused one here *)
  checkb "unused positional" true (has_code "FQ021" pos);
  let (_, _, clean) = analyze "for $i in (1, 2) return $i" in
  checkb "used for is clean" false (has_code "FQ021" clean)

let test_unused_function () =
  let (_, _, a) = analyze "declare function f($a) { $a }; 1" in
  (match find_code "FQ022" a with
  | Some d ->
    checks "context" "f" d.Diag.context;
    checkb "located at decl" true (d.Diag.loc = Some (1, 18))
  | None -> Alcotest.fail "expected FQ022");
  (* reachability, not mere mention: g is only called from unreached f *)
  let (_, _, b) =
    analyze
      "declare function f($a) { g($a) }; declare function g($a) { $a }; 1"
  in
  checki "both unreached" 2
    (List.length
       (List.filter (fun d -> d.Diag.code = "FQ022") b.Analyze.diagnostics));
  (* a self-recursive unused function is still unused *)
  let (_, _, c) = analyze "declare function f($a) { f($a) }; 1" in
  checkb "self-recursive unused" true (has_code "FQ022" c);
  let (_, _, clean) = analyze "declare function f($a) { $a }; f(1)" in
  checkb "called is clean" false (has_code "FQ022" clean)

let test_shadowing_in_ifp_body () =
  let (_, _, a) =
    analyze "with $x seeded by /a recurse (for $x in /b return $x)"
  in
  checkb "rebinding the recursion variable" true (has_code "FQ023" a);
  let (_, _, b) =
    analyze
      "with $x seeded by /a recurse (for $y in $x return (for $y in /b \
       return $y))"
  in
  checkb "rebinding an inner loop variable" true (has_code "FQ023" b);
  (* same binder outside any IFP body: not this rule's business *)
  let (_, _, clean) =
    analyze "for $y in /a return (for $y in /b return $y)"
  in
  checkb "outside ifp is clean" false (has_code "FQ023" clean)

(* ------------------------------------------------------------------ *)
(* Static diagnostics gain codes and positions                         *)
(* ------------------------------------------------------------------ *)

let test_static_located () =
  let (_, _, a) = analyze "1 + count($nope)" in
  (match find_code "FQ010" a with
  | Some d ->
    checks "severity" "error" (Diag.severity_string d.Diag.severity);
    checkb "located at the variable" true (d.Diag.loc = Some (1, 11))
  | None -> Alcotest.fail "expected FQ010");
  let (_, _, b) = analyze "nosuch(1)" in
  checkb "unknown function coded" true (has_code "FQ011" b)

(* ------------------------------------------------------------------ *)
(* Distributivity blame                                                *)
(* ------------------------------------------------------------------ *)

let test_blame_except () =
  let (_, _, a) = analyze "with $x seeded by /a recurse ($x/b except $x/c)" in
  let r = List.hd a.Analyze.ifps in
  checkb "not syntactic" false r.Analyze.syntactic;
  (match r.Analyze.blame with
  | Some b ->
    checks "rule" "EXCEPT/INTERSECT" b.Lang.Distributivity.rule;
    checkb "blamed is the except node" true
      (match b.Lang.Distributivity.blamed with
      | Lang.Ast.Except _ -> true
      | _ -> false)
  | None -> Alcotest.fail "expected blame");
  (* the FQ030 diagnostic lands on the except, not the whole IFP *)
  (match find_code "FQ030" a with
  | Some d -> checkb "blame located" true (d.Diag.loc = Some (1, 31))
  | None -> Alcotest.fail "expected FQ030")

let test_blame_inside_function_body () =
  let (_, _, a) =
    analyze
      "declare function f($s) { count($s) };\n\
       with $x seeded by /a recurse f($x)"
  in
  let r = List.hd a.Analyze.ifps in
  (match r.Analyze.blame with
  | Some b -> checks "rule" "FUNCALL" b.Lang.Distributivity.rule
  | None -> Alcotest.fail "expected blame");
  checkb "reported" true (has_code "FQ030" a)

let test_blame_preserves_explain () =
  (* blame_of is the same inference as explain: same reason text *)
  let (p, _) =
    Parser.parse_program_spans "with $x seeded by /a recurse count($x)"
  in
  match p.Lang.Ast.main with
  | Lang.Ast.Ifp { var; body; _ } ->
    (match
       ( Lang.Distributivity.explain var body,
         Lang.Distributivity.blame_of var body )
     with
    | (Lang.Distributivity.Unsafe reason, Some b) ->
      checks "same reason" reason b.Lang.Distributivity.reason
    | _ -> Alcotest.fail "expected Unsafe + blame")
  | _ -> Alcotest.fail "expected IFP"

(* ------------------------------------------------------------------ *)
(* Divergence classification                                           *)
(* ------------------------------------------------------------------ *)

let first_report src =
  let (_, _, a) = analyze src in
  List.hd a.Analyze.ifps

let test_divergence_classes () =
  let r = first_report "with $x seeded by /a recurse $x/b" in
  checkb "node-only terminates" true (r.Analyze.divergence = Analyze.Terminates);
  let r = first_report "with $x seeded by 1 recurse $x * 1" in
  (match r.Analyze.divergence with
  | Analyze.May_diverge _ -> ()
  | _ -> Alcotest.fail "arith should be may-diverge");
  let r = first_report "with $x seeded by <a/> recurse <b/>" in
  (match r.Analyze.divergence with
  | Analyze.May_diverge _ -> ()
  | _ -> Alcotest.fail "constructors should be may-diverge");
  let r = first_report "with $x seeded by 1 recurse $x" in
  checkb "atoms without growth are bounded" true
    (r.Analyze.divergence = Analyze.Bounded)

let test_divergence_diagnostics () =
  let (_, _, a) = analyze "with $x seeded by 1 recurse $x * 1" in
  (match find_code "FQ040" a with
  | Some d -> checks "severity" "warning" (Diag.severity_string d.Diag.severity)
  | None -> Alcotest.fail "expected FQ040");
  let (_, _, b) = analyze "with $x seeded by 1 recurse $x" in
  checkb "bounded is info FQ041" true (has_code "FQ041" b);
  let (_, _, c) = analyze "with $x seeded by /a recurse $x/b" in
  checkb "terminates is silent" false
    (has_code "FQ040" c || has_code "FQ041" c)

(* ------------------------------------------------------------------ *)
(* Acceptance: blame → push block → --fix-hints → both checkers agree  *)
(* ------------------------------------------------------------------ *)

let test_hint_repair_roundtrip () =
  let registry = Xdm.Doc_registry.create () in
  Xdm.Doc_registry.register ~registry "t"
    (Xdm.Xml_parser.parse_string ~uri:"t" "<r><a><b/></a></r>");
  let src = "with $x seeded by doc(\"t\")/r recurse ($x/a except $x/b)" in
  let (p, spans) = Parser.parse_program_spans src in
  let a = Analyze.analyze ~spans p in
  let r = List.hd a.Analyze.ifps in
  checkb "blamed" false r.Analyze.syntactic;
  checkb "repairable" true r.Analyze.hint_repairable;
  checkb "hint advertised" true (has_code "FQ032" a);
  (* the algebraic push blocks at the difference operator … *)
  let outcome =
    match Fixq.plan_of_first_ifp ~registry p with
    | Some (fix_id, plan) -> Push.check ~fix_id plan
    | None -> Alcotest.fail "expected a compilable plan"
  in
  checkb "push blocked" false outcome.Push.distributive;
  (match outcome.Push.blocking with
  | Some b -> checkb "blocked at difference" true (String.length b > 0 && b.[0] = '\\')
  | None -> Alcotest.fail "expected a blocking operator");
  (* … and the FQ031 mapping lands on the except construct *)
  (match Analyze.push_block_diag ~spans r outcome with
  | Some d ->
    checks "code" "FQ031" d.Diag.code;
    checkb "mapped to the except" true (d.Diag.loc = Some (1, 39))
  | None -> Alcotest.fail "expected FQ031");
  (* apply the hint; both checkers must now confirm *)
  let (p', applied) = Analyze.apply_hints p a in
  checki "one hint applied" 1 applied;
  let a' = Analyze.analyze p' in
  checkb "syntactic after repair" true
    (List.hd a'.Analyze.ifps).Analyze.syntactic;
  let outcome' =
    match Fixq.plan_of_first_ifp ~registry p' with
    | Some (fix_id, plan) -> Push.check ~fix_id plan
    | None -> Alcotest.fail "expected a compilable plan after repair"
  in
  checkb "algebraic after repair" true outcome'.Push.distributive;
  (* the repair preserves the query's meaning on this document *)
  let run p =
    Xdm.Serializer.seq_to_string
      (Fixq.run_program ~registry ~engine:(Fixq.Interpreter Fixq.Auto) p)
        .Fixq.result
  in
  checks "same result" (run p) (run p')

let test_apply_hints_skips_unrepairable () =
  (* constructor body: the hint cannot make it distributive *)
  let (p, _, a) = analyze "with $x seeded by <a/> recurse <b/>" in
  let r = List.hd a.Analyze.ifps in
  checkb "not repairable" false r.Analyze.hint_repairable;
  let (_, applied) = Analyze.apply_hints p a in
  checki "nothing applied" 0 applied

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "analysis"
    [ ("spans",
       [ Alcotest.test_case "line_col_of" `Quick test_line_col_of;
         Alcotest.test_case "locate nodes" `Quick test_spans_locate_nodes;
         Alcotest.test_case "constants unspanned" `Quick
           test_spans_constant_constructors_unspanned ]);
      ("lint",
       [ Alcotest.test_case "unused let" `Quick test_unused_let;
         Alcotest.test_case "unused for" `Quick test_unused_for;
         Alcotest.test_case "unused function" `Quick test_unused_function;
         Alcotest.test_case "shadowing in ifp body" `Quick
           test_shadowing_in_ifp_body;
         Alcotest.test_case "static located" `Quick test_static_located ]);
      ("blame",
       [ Alcotest.test_case "except" `Quick test_blame_except;
         Alcotest.test_case "inside function body" `Quick
           test_blame_inside_function_body;
         Alcotest.test_case "preserves explain" `Quick
           test_blame_preserves_explain ]);
      ("divergence",
       [ Alcotest.test_case "classes" `Quick test_divergence_classes;
         Alcotest.test_case "diagnostics" `Quick test_divergence_diagnostics ]);
      ("hints",
       [ Alcotest.test_case "repair roundtrip" `Quick
           test_hint_repair_roundtrip;
         Alcotest.test_case "skips unrepairable" `Quick
           test_apply_hints_skips_unrepairable ]) ]
