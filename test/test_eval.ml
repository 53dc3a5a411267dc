(* Interpreter tests: expression semantics, paths and predicates,
   FLWOR, built-ins, constructors, user-defined functions, errors. *)

module Atom = Fixq_xdm.Atom
module Node = Fixq_xdm.Node
module Item = Fixq_xdm.Item
module Doc_registry = Fixq_xdm.Doc_registry
module Xml_parser = Fixq_xdm.Xml_parser
module Serializer = Fixq_xdm.Serializer
module Eval = Fixq_lang.Eval
module Parser = Fixq_lang.Parser

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let registry = Doc_registry.create ()

let () =
  let doc =
    Xml_parser.parse_string ~strip_whitespace:true
      {|<lib>
          <book year="2003" id="b1"><title>Staircase Join</title><author>Grust</author></book>
          <book year="2004" id="b2"><title>XQuery on SQL Hosts</title><author>Grust</author><author>Teubner</author></book>
          <book year="2006" id="b3"><title>MonetDB/XQuery</title><author>Boncz</author></book>
        </lib>|}
  in
  Node.register_id_attribute doc "id";
  Doc_registry.register ~registry "lib.xml" doc

let run src =
  let ev = Eval.create ~registry () in
  Eval.run_string ev src

(* string view of a result: atoms via their lexical form, nodes
   serialized *)
let runs src = Serializer.seq_to_string (run src)

let atom_result src =
  match run src with
  | [ Item.A a ] -> a
  | r -> Alcotest.failf "expected one atom, got %d items" (List.length r)

let check_run msg expected src = check_str msg expected (runs src)

let check_error msg src =
  check msg true
    (try
       ignore (run src);
       false
     with Eval.Error _ | Fixq_lang.Builtins.Error _ | Atom.Type_error _ ->
       true)

(* ------------------------------------------------------------------ *)
(* Basics                                                              *)
(* ------------------------------------------------------------------ *)

let test_arithmetic () =
  check_run "int add" "5" "2 + 3";
  check_run "precedence" "7" "1 + 2 * 3";
  check_run "div is double" "2.5" "5 div 2";
  check_run "idiv" "2" "5 idiv 2";
  check_run "mod" "1" "5 mod 2";
  check_run "neg" "-3" "-(1 + 2)";
  check_run "empty propagates" "" "1 + ()";
  check_error "div by zero" "1 div 0";
  check_error "seq arith" "(1,2) + 1"

let test_comparisons () =
  check_run "general eq" "true" "1 = 1";
  check_run "existential" "true" "(1, 2, 3) = 3";
  check_run "existential false" "false" "(1, 2) = (4, 5)";
  check_run "ne is existential too" "true" "(1, 2) != 1";
  check_run "string vs number promotes" "true" {|"3" = 3|};
  check_run "value cmp" "false" {|"a" ne "a"|};
  check_run "value cmp empty" "" "() eq 1";
  check_run "range" "1 2 3" "1 to 3";
  check_run "empty range" "" "3 to 1"

let test_logic () =
  check_run "and" "false" "true() and false()";
  check_run "or" "true" "true() or false()";
  check_run "ebv of node seq" "true" {|boolean(doc("lib.xml")//book)|};
  check_run "not of empty" "true" "not(())"

let test_sequences () =
  check_run "flatten" "1 2 3" "(1, (2, 3))";
  check_run "count" "3" "count((1, 2, 3))";
  check_run "empty" "true" "empty(())";
  check_run "exists" "true" "exists((1))"

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)
(* ------------------------------------------------------------------ *)

let test_paths () =
  check_int "books" 3 (List.length (run {|doc("lib.xml")/lib/book|}));
  check_int "authors" 4 (List.length (run {|doc("lib.xml")//author|}));
  check_run "attribute value" "2003" {|data(doc("lib.xml")/lib/book[1]/@year)|};
  check_int "wildcard" 3 (List.length (run {|doc("lib.xml")/lib/*|}));
  check_run "text nodes" "Grust" {|doc("lib.xml")//book[1]/author/text()|};
  (* duplicate elimination: 4 authors but 3 parent books, one book
     reached twice *)
  check_int "ddo dedups via parent" 3
    (List.length (run {|doc("lib.xml")//author/..|}));
  check "path over atoms errors" true
    (try
       ignore (run "(1, 2)/a");
       false
     with _ -> true)

let test_predicates () =
  check_int "value predicate" 1
    (List.length (run {|doc("lib.xml")//book[@year = "2004"]|}));
  check_run "positional" "Staircase Join"
    {|string(doc("lib.xml")//book[1]/title)|};
  check_run "last()" "MonetDB/XQuery"
    {|string(doc("lib.xml")//book[last()]/title)|};
  check_run "position() in filter" "XQuery on SQL Hosts"
    {|string(doc("lib.xml")//book[position() = 2]/title)|};
  check_int "nested predicates" 1
    (List.length (run {|doc("lib.xml")//book[author = "Teubner"][@id = "b2"]|}));
  check_run "predicate on reverse axis picks nearest" "b1"
    {|data(doc("lib.xml")//book[@id="b2"]/preceding-sibling::book[1]/@id)|}

let test_fn_id () =
  check_run "id via context" "Staircase Join"
    {|string(doc("lib.xml")/id("b1")/title)|};
  check_run "id multiple tokens" "2" {|count(doc("lib.xml")/id("b1 b3"))|};
  check_run "id 2-arg" "XQuery on SQL Hosts"
    {|string(id("b2", doc("lib.xml"))/title)|}

let test_fn_idref () =
  let reg = Doc_registry.create () in
  let doc =
    Xml_parser.parse_string ~strip_whitespace:true
      {|<!DOCTYPE lib [
          <!ATTLIST book id ID #REQUIRED>
          <!ATTLIST cite ref IDREFS #REQUIRED>
        ]>
        <lib>
          <book id="b1"/>
          <book id="b2"/>
          <cite ref="b1"/>
          <cite ref="b1 b2"/>
        </lib>|}
  in
  Doc_registry.register ~registry:reg "refs.xml" doc;
  let run src =
    let ev = Eval.create ~registry:reg () in
    Eval.run_string ev src
  in
  check_int "idref finds referring attributes" 2
    (List.length (run {|doc("refs.xml")/idref("b1")|}));
  check_int "idref tokenizes IDREFS" 1
    (List.length (run {|doc("refs.xml")/idref("b2")|}));
  check_int "idref misses unknown" 0
    (List.length (run {|doc("refs.xml")/idref("zz")|}));
  check "idref yields attribute nodes" true
    (match run {|doc("refs.xml")/idref("b2")|} with
    | [ Item.N n ] -> n.Node.kind = Node.Attribute && Node.name n = "ref"
    | _ -> false);
  check_int "idref 2-arg" 2
    (List.length (run {|idref("b1", doc("refs.xml"))|}))

(* ------------------------------------------------------------------ *)
(* FLWOR, quantifiers, typeswitch                                      *)
(* ------------------------------------------------------------------ *)

let test_flwor () =
  check_run "for" "2 4 6" "for $x in (1, 2, 3) return 2 * $x";
  check_run "positional var" "1 2 3"
    {|for $x at $i in ("a", "b", "c") return $i|};
  check_run "where" "2" "for $x in (1, 2) where $x = 2 return $x";
  check_run "let" "9" "let $x := 3 return $x * $x";
  check_run "nested" "11 12 21 22"
    "for $a in (10, 20), $b in (1, 2) return $b + $a";
  check_run "for over books" "b1 b2 b3"
    {|string-join(for $b in doc("lib.xml")//book return data($b/@id), " ")|}

let test_order_by () =
  check_run "ascending" "1 2 3" "for $x in (3, 1, 2) order by $x return $x";
  check_run "descending" "3 2 1"
    "for $x in (3, 1, 2) order by $x descending return $x";
  check_run "key expression" "b ab zzz"
    {|for $s in ("zzz", "b", "ab") order by string-length($s) return $s|};
  check_run "stable for equal keys" "a b"
    {|for $s in ("a", "b") order by 1 return $s|};
  (* empty keys sort first ("empty least") *)
  check_run "empty keys first" "9 1 5"
    {|string-join(for $x in (1, 9, 5)
                  order by (if ($x = 9) then () else $x)
                  return $x cast as xs:string, " ")|};
  check_run "where before order" "2 4"
    "for $x in (4, 1, 2) where $x mod 2 = 0 order by $x return $x";
  check_run "sort books by year desc" "b3 b2 b1"
    {|string-join(for $b in doc("lib.xml")//book
                  order by $b/@year descending
                  return data($b/@id), " ")|};
  check "multi-binding order by rejected" true
    (try
       ignore (Parser.parse_expr "for $a in (1), $b in (2) order by $a return $a");
       false
     with Parser.Error _ -> true)

let test_quantifiers () =
  check_run "some true" "true" "some $x in (1, 2, 3) satisfies $x = 2";
  check_run "some false" "false" "some $x in (1, 2) satisfies $x = 9";
  check_run "every true" "true" "every $x in (2, 4) satisfies $x mod 2 = 0";
  check_run "every vacuous" "true" "every $x in () satisfies $x = 1"

let test_instance_of () =
  check_run "node star" "true" {|doc("lib.xml")//book instance of node()*|};
  check_run "element name" "true"
    {|(doc("lib.xml")//book)[1] instance of element(book)|};
  check_run "wrong name" "false"
    {|(doc("lib.xml")//book)[1] instance of element(title)|};
  check_run "integer" "true" "3 instance of xs:integer";
  check_run "occurrence one fails on seq" "false"
    "(1, 2) instance of xs:integer";
  check_run "plus needs nonempty" "false" "() instance of xs:integer+";
  check_run "empty-sequence" "true" "() instance of empty-sequence()";
  check_run "under comparison" "true" "(1 instance of xs:integer) = true()"

let test_cast () =
  check_run "string to int" "5" {|"5" cast as xs:integer|};
  check_run "int to string" "5" {|5 cast as xs:string|};
  check_run "to double" "2.5" {|"2.5" cast as xs:double|};
  check_run "bool from word" "true" {|"true" cast as xs:boolean|};
  check_run "optional empty" "" "() cast as xs:integer?";
  check_error "empty without ?" "() cast as xs:integer";
  check_error "bad lexical form" {|"zap" cast as xs:integer|};
  check_run "castable yes" "true" {|"5" castable as xs:integer|};
  check_run "castable no" "false" {|"zap" castable as xs:integer|};
  check_run "castable empty with ?" "true" "() castable as xs:integer?";
  check_run "castable empty without ?" "false" "() castable as xs:integer";
  check_run "node atomizes before cast" "2003"
    {|doc("lib.xml")//book[1]/@year cast as xs:integer|}

let test_tokenize () =
  check_run "whitespace" "a b c" {|string-join(tokenize(" a  b c "), " ")|};
  check_run "separator" "a|b|c" {|string-join(tokenize("a-b-c", "-"), "|")|};
  check_run "multichar separator" "2" {|count(tokenize("x::y", "::"))|};
  check_run "trailing empty token" "3" {|count(tokenize("a,b,", ","))|};
  check_error "empty separator" {|tokenize("abc", "")|}

let test_typeswitch () =
  check_run "element case" "elem"
    {|typeswitch (doc("lib.xml")//book[1])
      case element() return "elem" default return "other"|};
  check_run "integer case" "int"
    {|typeswitch (4)
      case xs:string return "str"
      case xs:integer return "int"
      default return "other"|};
  check_run "case var binds" "4"
    {|typeswitch (4) case $i as xs:integer return $i default return 0|};
  check_run "occurrence star" "seq"
    {|typeswitch ((1, 2)) case xs:integer* return "seq" default return "no"|};
  check_run "default var" "2"
    {|typeswitch ((1, 2)) case xs:string return 0 default $d return count($d)|}

(* ------------------------------------------------------------------ *)
(* Built-ins                                                           *)
(* ------------------------------------------------------------------ *)

let test_string_functions () =
  check_run "concat" "abc" {|concat("a", "b", "c")|};
  check_run "string-join" "a-b" {|string-join(("a", "b"), "-")|};
  check_run "contains" "true" {|contains("staircase", "air")|};
  check_run "starts-with" "true" {|starts-with("abc", "ab")|};
  check_run "ends-with" "true" {|ends-with("abc", "bc")|};
  check_run "substring" "bc" {|substring("abcd", 2, 2)|};
  check_run "substring-before" "ab" {|substring-before("ab-cd", "-")|};
  check_run "substring-after" "cd" {|substring-after("ab-cd", "-")|};
  check_run "upper" "ABC" {|upper-case("abc")|};
  check_run "translate drops unmapped" "AB" {|translate("abc", "abc", "AB")|};
  check_run "normalize-space" "a b" {|normalize-space("  a   b ")|};
  check_run "string-length" "3" {|string-length("abc")|}

let test_numeric_functions () =
  check_run "sum" "6" "sum((1, 2, 3))";
  check_run "sum empty" "0" "sum(())";
  check_run "avg" "2" "avg((1, 2, 3))";
  check_run "max" "3" "max((1, 3, 2))";
  check_run "min" "1" "min((3, 1, 2))";
  check_run "abs" "3" "abs(-3)";
  check_run "floor" "1" "floor(1.7)";
  check_run "ceiling" "2" "ceiling(1.2)";
  check_run "round" "2" "round(1.5)";
  check_run "number of string" "42" {|number("42")|}

let test_more_builtins () =
  check_run "string() on context via path" "Grust"
    {|(doc("lib.xml")//author)[1]/string()|} |> ignore;
  check_run "string 1-arg empty" "" {|string(())|};
  check_run "number NaN on junk" "true"
    {|string(number("zap")) = "nan"|} |> ignore;
  check_run "sum with zero default" "0" "sum((), 0)";
  check_run "sum 2-arg unused when nonempty" "3" {|sum((1, 2), 99)|};
  check_run "avg empty is empty" "0" "count(avg(()))";
  check_run "max of strings" "c" {|max(("a", "c", "b"))|};
  check_run "min mixed numerics" "1" "min((2, 1.5, 1))";
  check_run "subsequence to end" "3 4" "subsequence((1, 2, 3, 4), 3)";
  check_run "subsequence clamp" "1" "subsequence((1, 2), 0, 1.5)" |> ignore;
  check_run "index-of empty" "" "index-of((), 1)";
  check_run "insert-before at end" "1 2 9" "insert-before((1, 2), 9, 9)";
  check_run "remove out of range" "1 2" "remove((1, 2), 5)";
  check_run "zero-or-one empty ok" "" "zero-or-one(())";
  check_run "one-or-more passes" "1 2" "one-or-more((1, 2))";
  check_error "one-or-more empty" "one-or-more(())";
  check_run "boolean of node" "true" {|boolean(doc("lib.xml")/lib)|};
  check_run "name on attribute" "year"
    {|name((doc("lib.xml")//@year)[1])|};
  check_run "local-name" "book" {|local-name((doc("lib.xml")//book)[1])|};
  check_run "deep-equal distinct trees" "true"
    "deep-equal(<a><b/></a>, <a><b/></a>)";
  check_run "deep-equal differs" "false" "deep-equal(<a/>, <b/>)";
  check_run "unordered is identity" "2 1" "unordered((2, 1))";
  check_error "concat arity" {|concat("a")|}

let test_sequence_functions () =
  check_run "distinct-values" "1 2 3" "distinct-values((1, 2, 2, 3, 1))";
  check_run "reverse" "3 2 1" "reverse((1, 2, 3))";
  check_run "subsequence" "2 3" "subsequence((1, 2, 3, 4), 2, 2)";
  check_run "index-of" "2 4" "index-of((1, 5, 2, 5), 5)";
  check_run "insert-before" "1 9 2" "insert-before((1, 2), 2, 9)";
  check_run "remove" "1 3" "remove((1, 2, 3), 2)";
  check_run "deep-equal" "true" "deep-equal((1, 2), (1, 2))";
  check_run "exactly-one" "5" "exactly-one((5))";
  check_error "exactly-one fails" "exactly-one((1, 2))"

let test_node_functions () =
  check_run "name" "book" {|name(doc("lib.xml")//book[1])|};
  check_run "root returns doc" "true"
    {|root((doc("lib.xml")//title)[1]) is doc("lib.xml")|};
  check_run "data atomizes" "Grust" {|data(doc("lib.xml")//book[1]/author)|};
  check_run "node order" "true"
    {|doc("lib.xml")//book[1] << doc("lib.xml")//book[2]|}

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)
(* ------------------------------------------------------------------ *)

let test_constructors () =
  check_run "direct" {|<a k="v"><b/>text</a>|} {|<a k="v"><b/>text</a>|};
  check_run "attr expr" {|<a k="1 2"/>|} {|<a k="{(1, 2)}"/>|};
  check_run "enclosed atoms joined" "<a>1 2</a>" "<a>{1, 2}</a>";
  check_run "computed element" "<x>hi</x>" {|element x { "hi" }|};
  check_run "computed text joins" "1 2" "string(text { (1, 2) })";
  check_run "text of empty is empty" "0" "count(text { () })";
  check_run "comment" "<!--note-->" {|comment { "note" }|};
  (* construction copies: fresh identities *)
  check_run "copies have new identity" "false"
    {|let $b := doc("lib.xml")//book[1]
      let $w := <wrap>{$b}</wrap>
      return $w/book is $b|};
  check_run "attribute node in content becomes attribute" {|<a k="v"/>|}
    {|element a { attribute k { "v" } }|};
  check_run "document constructor" "1" {|count(document { <r/> }/r)|};
  (* each evaluation yields a distinct node (paper, Section 3.2) *)
  check_run "constructor identity per evaluation" "2"
    {|count((text { "c" } , text { "c" }))|}

(* ------------------------------------------------------------------ *)
(* Functions and programs                                              *)
(* ------------------------------------------------------------------ *)

let test_user_functions () =
  check_run "simple function" "25"
    {|declare function square($x) { $x * $x }; square(5)|};
  check_run "recursion" "120"
    {|declare function fact($n) { if ($n <= 1) then 1 else $n * fact($n - 1) };
      fact(5)|};
  check_run "mutual recursion" "true"
    {|declare function is-even($n) { if ($n = 0) then true() else is-odd($n - 1) };
      declare function is-odd($n) { if ($n = 0) then false() else is-even($n - 1) };
      is-even(10)|};
  check_run "globals visible in functions" "7"
    {|declare variable $k := 7;
      declare function get() { $k };
      get()|};
  check_error "unknown function" "no-such-fn(1)";
  check_error "wrong arity" {|declare function one($x) { $x }; one(1, 2)|}

let test_function_isolation () =
  (* functions do not see the caller's local variables or context *)
  check_error "no caller locals"
    {|declare function f() { $x }; let $x := 1 return f()|};
  check_error "no caller context"
    {|declare function f() { name(.) }; doc("lib.xml")/lib/f()|}

let test_eval_expr_api () =
  let ev = Eval.create ~registry () in
  let e = Parser.parse_expr "$n + 1" in
  let r = Eval.eval_expr ev ~vars:[ ("n", [ Item.A (Atom.Int 41) ]) ] e in
  check "vars api" true
    (match r with [ Item.A (Atom.Int 42) ] -> true | _ -> false);
  let doc = Option.get (Doc_registry.find ~registry "lib.xml") in
  let book =
    List.hd
      (Eval.eval_expr ev ~context:(Item.N doc) (Parser.parse_expr "//book[1]"))
  in
  let r2 = Eval.eval_expr ev ~context:book (Parser.parse_expr "name(.)") in
  check "context api" true
    (match r2 with [ Item.A (Atom.Str "book") ] -> true | _ -> false)

let test_errors () =
  check_error "undefined variable" "$nope";
  check_error "context absent" ".";
  check_error "doc missing" {|doc("nope.xml")|};
  check_error "call depth guard"
    {|declare function loop($n) { loop($n + 1) }; loop(0)|}

let test_api_surface () =
  let ev = Eval.create ~registry ~strategy:Eval.Naive () in
  check "strategy getter" true (Eval.strategy ev = Eval.Naive);
  Eval.set_strategy ev Eval.Auto;
  check "strategy setter" true (Eval.strategy ev = Eval.Auto);
  check "registry getter" true (Eval.registry ev == registry);
  (* load_prolog installs functions and globals without running main *)
  Eval.load_prolog ev
    (Parser.parse_program
       {|declare variable $k := 3;
         declare function triple($n) { $n * $k };
         0|});
  check "prolog functions visible" true
    (Hashtbl.mem (Eval.functions ev) "triple");
  check "globals evaluated" true
    (Eval.eval_expr ev (Parser.parse_expr "triple(2)")
    = [ Item.A (Atom.Int 6) ]);
  (* stats lifecycle *)
  let stats = Eval.stats ev in
  Fixq_lang.Stats.reset stats;
  check "reset clears totals" true
    (Fixq_lang.Stats.nodes_fed stats = 0
    && Fixq_lang.Stats.payload_calls stats = 0);
  ignore
    (Eval.eval_expr ev
       (Parser.parse_expr "with $x seeded by (1 to 0) recurse $x"))
  |> ignore;
  check "stats pretty-prints" true
    (String.length (Format.asprintf "%a" Fixq_lang.Stats.pp stats) > 0);
  (* printers *)
  check "item pp" true
    (String.length
       (Format.asprintf "%a" Item.pp_seq
          [ Item.A (Atom.Int 1); Item.A (Atom.Str "s") ])
    > 0)

let test_atom_result_kinds () =
  check "int" true (atom_result "1 + 1" = Atom.Int 2);
  check "bool" true (atom_result "1 = 1" = Atom.Bool true);
  check "str" true (atom_result {|"a"|} = Atom.Str "a")

(* ------------------------------------------------------------------ *)
(* Loop-invariant evaluation                                           *)
(* ------------------------------------------------------------------ *)

(* A [for] body or predicate operand that reads nothing the loop binds
   is evaluated at most once per loop instance, on first use. *)

let test_guarded_error_in_body () =
  check_run "guard never holds" "1 2"
    "for $i in (1,2) return if ($i = 3) then (1 div 0) else $i";
  check_run "guard holds late" "1"
    "count(for $i in (1,2) return if ($i = 1) then 1 else ())";
  check_error "guard holds"
    "for $i in (1,2) return if ($i = 2) then (1 div 0) else $i"

let test_guarded_error_in_predicate () =
  check_run "context guard" "1 2 3"
    "(1,2,3)[if (. = 7) then (1 div 0) else true()]";
  check_run "path guard" "b1 b2 b3"
    {|for $b in doc("lib.xml")//book[if (@year = "1900") then (1 div 0) else true()] return string($b/@id)|};
  check_error "predicate guard holds"
    "(1,2,3)[if (. = 2) then (1 div 0) else true()]"

(* An inner loop is analysed once per evaluator but gets fresh slots
   on every entry: its invariants read the outer binding of the entry,
   and an outer loop of one item (which hoists nothing) leaves them to
   the inner loop. *)
let test_nested_loop_slots () =
  check_run "inner invariant reads the outer variable" "110 120 210 220 310 320"
    "for $a in (1,2,3) return for $b in (10,20) return $a * 100 + $b";
  check_run "shared operand per outer binding" "1 2 2 3"
    "for $a in (1,2) return for $b in (0,1) return count((1 to $a)) + $b";
  check_run "outer loop of one item" "3 4"
    "for $a in (1) return for $b in (1,2) return $b + count(($a, $a))";
  check_run "outer slot inside an inner predicate" "2 2"
    "for $a in (1,2) return count((1,2,3)[. = (1 to 3)[position() > 1]])"

let test_constructors_in_loops () =
  check_run "fresh element per binding" "false"
    "let $n := for $i in (1,2) return <a/> return $n[1] is $n[2]";
  check_run "invariant content, fresh copies" "false true"
    {|let $s := for $i in (1,2) return <e>{doc("lib.xml")//book[1]/title}</e>
      return ($s[1]/title is $s[2]/title, $s[1] << $s[2])|};
  check_run "constructor in a predicate" "3"
    "count((1,2,3)[not(<a/> is <a/>)])"

let test_focus_builtins_in_predicates () =
  check_run "position/last" "b3"
    {|string(doc("lib.xml")//book[position() = last()]/@id)|};
  check_run "string()" "b3"
    {|string(doc("lib.xml")//book[string() = "MonetDB/XQueryBoncz"]/@id)|};
  check_run "name()" "2"
    {|count(doc("lib.xml")//book[2]/*[name() = "author"])|};
  check_run "id()" "b2"
    {|string(doc("lib.xml")//book[id("b2") is .]/@id)|};
  (* the outer focus is a tree without IDs: id() must read each book's *)
  check_run "id() under a foreign focus" "b2"
    {|let $books := doc("lib.xml")//book
      return string(<z/>/($books[id("b2") is .])/@id)|};
  check_run "nested focus" "b2"
    {|string(doc("lib.xml")//book[author[2][string() = "Teubner"]]/@id)|}

let test_hashed_general_eq () =
  check_run "all strings" "true true false"
    {|for $s in ("a","b","z") return $s = ("a","b","c")|};
  check_run "numeric promotion keeps pairwise" "true true false"
    {|for $i in (1, 2, 5) return $i = ("1", "2.0")|};
  check_run "attribute join" "b1 b2"
    {|let $ys := (doc("lib.xml")//book[author = "Grust"]/@year)
      for $b in doc("lib.xml")//book where $b/@year = $ys return string($b/@id)|};
  check_error "incomparable pair still raises"
    {|for $i in (1, 2) return $i = (1, true())|}

let index_steps_of src =
  let before = !Fixq_xdm.Counters.index_steps in
  ignore (run src);
  !Fixq_xdm.Counters.index_steps - before

let value_probes_of src =
  let before = !Fixq_xdm.Counters.value_probes in
  ignore (run src);
  !Fixq_xdm.Counters.value_probes - before

let test_invariant_index_steps () =
  (* the whole [doc(...)//book] is invariant: one index step *)
  check_int "invariant operand evaluated once" 1
    (index_steps_of
       {|for $y in (1,2,3) return count(doc("lib.xml")//book)|});
  (* [//book[@year = $y]] reads the loop variable: each binding is a
     value probe (its [doc(...)//] prefix is not hoisted on its own),
     which finds its candidates by a range search, not an index step *)
  let q = {|for $y in ("2003","2006") return doc("lib.xml")//book[@year = $y]|} in
  check_int "// step in a loop keeps the index" 2 (value_probes_of q);
  check_int "… without an index step" 0 (index_steps_of q);
  (* a predicate that cannot probe still answers each binding's step
     from the name index *)
  check_int "// step in a loop, scanned" 2
    (index_steps_of
       {|for $y in ("2003","2006") return doc("lib.xml")//book[@year = $y and true()]|})

let test_positional_sibling_steps () =
  let d = {|<r><a k="1"/><b/><a k="2"/><c/><a/></r>|} in
  check_run "following-sibling [k]" "2"
    (Printf.sprintf "string((%s)/b/following-sibling::a[1]/@k)" d);
  check_run "preceding-sibling [k]" "1"
    (Printf.sprintf "string((%s)/c/preceding-sibling::a[2]/@k)" d);
  check_run "child [k]" "2" (Printf.sprintf "string((%s)/a[2]/@k)" d);
  check_run "past the end" "0"
    (Printf.sprintf "count((%s)/b/preceding-sibling::*[2])" d);
  check_run "zero" "0" (Printf.sprintf "count((%s)/*[0])" d);
  check_run "attributes have no siblings" "0 0"
    {|let $x := <a x="1"><b/><c/></a>/@x
      return (count($x/preceding-sibling::*), count($x/following-sibling::*))|}

(* ------------------------------------------------------------------ *)
(* Staged evaluation                                                   *)
(* ------------------------------------------------------------------ *)

(* Names are resolved when a program is compiled, but an unbound
   variable or an unknown function still raises only when evaluated. *)
let test_unbound_names_in_dead_branches () =
  check_run "unbound variable, branch not taken" "1" "if (1 = 2) then $nope else 1";
  check_run "unknown function, branch not taken" "2" "if (false()) then nosuch(1) else 2";
  check_run "both, in a predicate" "1 2"
    "(1, 2)[if (. = 5) then nosuch($nope) else true()]";
  check_error "unbound variable, branch taken" "if (1 = 1) then $nope else 1";
  check_error "unknown function, branch taken" "if (true()) then nosuch(1) else 2"

(* A predicate whose value is one number selects by position, whatever
   expression computes it. *)
let test_numeric_predicates () =
  check_run "[$i]" "20 30" "for $i in (2, 3) return (10, 20, 30)[$i]";
  check_run "[$i] on a step" "b2"
    {|let $i := 2 return string(doc("lib.xml")/lib/book[$i]/@id)|};
  check_run "[$d], a double" "30" "let $d := 3.0 return (10, 20, 30)[$d]";
  check_run "[last()]" "30" "(10, 20, 30)[last()]";
  check_run "[position() < 3]" "10 20" "(10, 20, 30)[position() < 3]"

(* [//a[p]] walks the name index when [p] is surely boolean or surely a
   node sequence, and position-free: the answer is the one the spelled
   out descendant-or-self walk gives. *)
let test_descendant_collapse () =
  Doc_registry.register ~registry "nest.xml"
    (Xml_parser.parse_string
       {|<r><a><b/><a><b><c/></b></a></a><x><a k="1"/><a><b/><b/></a></x><a/></r>|});
  let spelled pred =
    Printf.sprintf
      {|(for $n in doc("nest.xml")/descendant-or-self::node() return $n/a[%s]) union ()|}
      pred
  in
  List.iter
    (fun pred ->
      let q = Printf.sprintf {|doc("nest.xml")//a[%s]|} pred in
      check_str ("//a[" ^ pred ^ "]") (runs (spelled pred)) (runs q);
      check_int ("//a[" ^ pred ^ "] uses the name index") 1 (index_steps_of q))
    [ "b"; "b/c"; "@k" ];
  check_str "//a[count(b)]" (runs (spelled "count(b)")) (runs {|doc("nest.xml")//a[count(b)]|});
  check_int "//a[count(b)] keeps the walk" 0 (index_steps_of {|doc("nest.xml")//a[count(b)]|})

(* ------------------------------------------------------------------ *)
(* Value-index probes                                                  *)
(* ------------------------------------------------------------------ *)

let test_value_probe_regressions () =
  check_run "probe answers" "b1 b2"
    {|for $b in doc("lib.xml")//book[author = "Grust"] return string($b/@id)|};
  check_int "… from the value index" 1
    (value_probes_of {|doc("lib.xml")//book[author = "Grust"]|});
  check_run "operand on the left, child step" "b3"
    {|string(doc("lib.xml")/lib/book["2006" = @year]/@id)|};
  check_run "repeated operand values" "b1 b3"
    {|let $v := ("2006", "2003", "2006")
      for $b in doc("lib.xml")//book[@year = $v] return string($b/@id)|};
  check_int "an operand that reads the focus scans" 0
    (value_probes_of {|doc("lib.xml")//book[@year = ../@year]|});
  check_run "… and keeps its answer" "0"
    {|count(doc("lib.xml")//book[@year = ../@year])|};
  (* no candidate: the operand is never evaluated *)
  check_run "guarded operand, no candidate" ""
    {|doc("lib.xml")//missing[@k = (1 div 0)]|};
  check_error "guarded operand, a candidate"
    {|doc("lib.xml")//book[@year = (1 div 0)]|};
  check_error "boolean operand keeps its type error"
    {|doc("lib.xml")//book[@year = true()]|};
  check_run "numeric operand keeps promotion" "b1"
    {|string(doc("lib.xml")//book[@year = 2003.0]/@id)|};
  check_run "constructed trees scan" "1"
    {|count(<r><e a="x"/><e a="y"/></r>//e[@a = "x"])|}

(* Random documents, key paths and operands: each query must agree,
   answer or error, with the same predicate written so that it cannot
   probe ([… and true()]); and again after random edits of the same
   tree, which must drop its value tables. *)
module Patch = Fixq_xdm.Patch

let values = [| "x"; "y"; "1"; "01"; "1.0"; "" |]

let random_doc st =
  let pick () = values.(Random.State.int st (Array.length values)) in
  let attr () =
    if Random.State.int st 4 = 0 then "" else Printf.sprintf {| a="%s"|} (pick ())
  in
  let b () = Printf.sprintf "<b%s>%s</b>" (attr ()) (pick ()) in
  let rec e depth =
    let kids =
      List.init (Random.State.int st 3) (fun _ ->
          if depth < 2 && Random.State.int st 4 = 0 then e (depth + 1) else b ())
    in
    Printf.sprintf "<e%s>%s</e>" (attr ()) (String.concat "" kids)
  in
  let g () =
    Printf.sprintf "<g>%s</g>"
      (String.concat "" (List.init (1 + Random.State.int st 10) (fun _ -> e 0)))
  in
  Printf.sprintf "<r>%s</r>"
    (String.concat "" (List.init (1 + Random.State.int st 3) (fun _ -> g ())))

(* Filtered steps, as paths (whose last step sorts and deduplicates)
   and evaluated directly from a focus, where the order and the
   multiplicity of the filter's own answer show. *)
let steps =
  [| Printf.sprintf {|doc("p.xml")//e[%s]|};
     Printf.sprintf {|doc("p.xml")/r/g/e[%s]|};
     Printf.sprintf {|doc("p.xml")//e/e[%s]|};
     Printf.sprintf {|for $g in doc("p.xml")//g return $g//e[%s]|};
     Printf.sprintf {|doc("p.xml")//g/count(e[%s])|};
     Printf.sprintf
       {|doc("p.xml")/r/(for $x in descendant::e[%s] return count($x/preceding::node()))|} |]

let key_paths = [| "@a"; "b/@a"; "b/text()"; "b" |]

let operands =
  [| {|"x"|}; {|("x", "x")|}; "()"; "1"; {|"1"|}; {|("x", 1)|};
     {|("y", "x", "01")|}; "true()" |]

let random_query st =
  let pick a = a.(Random.State.int st (Array.length a)) in
  let step = pick steps and kp = pick key_paths and v = pick operands in
  let bound = Random.State.bool st in
  let operand = if bound then "$v" else v in
  let cmp =
    if Random.State.bool st then Printf.sprintf "%s = %s" kp operand
    else Printf.sprintf "%s = %s" operand kp
  in
  let q pred =
    let body = step pred in
    if bound then Printf.sprintf "let $v := %s return %s" v body else body
  in
  (q cmp, q (cmp ^ " and true()"))

let outcome registry src =
  match Eval.run_string (Eval.create ~registry ()) src with
  | r -> Ok (Serializer.seq_to_string r)
  | exception (Eval.Error m | Fixq_lang.Builtins.Error m | Atom.Type_error m) ->
    Error m

let agree registry st =
  let (probed, scanned) = random_query st in
  let a = outcome registry probed and b = outcome registry scanned in
  if a <> b then
    QCheck.Test.fail_reportf "%s@.  gives %s@.  but %s gives %s" probed
      (match a with Ok s -> s | Error m -> "error " ^ m)
      scanned
      (match b with Ok s -> s | Error m -> "error " ^ m);
  true

let with_random_doc seed f =
  let st = Random.State.make [| seed |] in
  let registry = Doc_registry.create () in
  let doc = Xml_parser.parse_string ~uri:"p.xml" (random_doc st) in
  Doc_registry.register ~registry "p.xml" doc;
  f st registry doc

let prop_indexed_is_scanned =
  QCheck.Test.make ~name:"indexed = scanned" ~count:300 QCheck.small_nat
    (fun seed ->
      with_random_doc seed (fun st registry _ ->
          List.for_all (fun _ -> agree registry st) (List.init 8 Fun.id)))

let random_patch st =
  let g = 1 + Random.State.int st 3 and e = 1 + Random.State.int st 4 in
  let at = Printf.sprintf "/r/g[%d]/e[%d]" g e in
  let xml = Printf.sprintf {|<e a="%s"><b a="x">y</b></e>|} values.(Random.State.int st 6) in
  match Random.State.int st 4 with
  | 0 -> Patch.Insert { path = Printf.sprintf "/r/g[%d]" g; position = Patch.Last; xml }
  | 1 -> Patch.Delete { path = at }
  | 2 -> Patch.Replace { path = at; xml }
  | _ -> Patch.Set_text { path = at ^ "/b[1]"; text = values.(Random.State.int st 6) }

let prop_indexed_is_scanned_after_edits =
  QCheck.Test.make ~name:"indexed = scanned after edits" ~count:150 QCheck.small_nat
    (fun seed ->
      with_random_doc seed (fun st registry doc ->
          List.for_all
            (fun _ ->
              (try ignore (Patch.apply doc (random_patch st))
               with Patch.Patch_error _ -> ());
              agree registry st && agree registry st)
            (List.init 6 Fun.id)))

(* The indexes a splice keeps must equal ones built afresh, here by a
   walk the indexes do not use: for names, the elements in document
   order; for a key path, each value and the elements reaching it. *)
let scan_named doc nm =
  let acc = ref [] in
  Node.iter_subtree
    (fun n -> if n.Node.kind = Node.Element && Node.name n = nm then acc := n :: !acc)
    doc;
  List.rev !acc

let rec reach n = function
  | [] -> [ n ]
  | step :: rest ->
    let keep c =
      match step with
      | Node.Key_child nm -> c.Node.kind = Node.Element && Node.name c = nm
      | Node.Key_attr nm -> Node.name c = nm
      | Node.Key_text -> c.Node.kind = Node.Text
    in
    let from = match step with Node.Key_attr _ -> Node.attributes n | _ -> Node.children n in
    List.concat_map (fun c -> reach c rest) (List.filter keep from)

let fresh_table elems path =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun e ->
      List.iter
        (fun v -> Hashtbl.replace tbl v (e :: Option.value ~default:[] (Hashtbl.find_opt tbl v)))
        (List.sort_uniq compare (List.map Node.string_value (reach e path))))
    elems;
  List.sort compare (Hashtbl.fold (fun v l acc -> (v, List.rev l) :: acc) tbl [])

let same_nodes a b = List.length a = List.length b && List.for_all2 ( == ) a b

let kept_tables =
  Node.
    [ ("e", [ Key_attr "a" ]); ("e", [ Key_child "b"; Key_attr "a" ]);
      ("e", [ Key_child "b"; Key_text ]); ("e", [ Key_child "b" ]); ("e", [ Key_text ]);
      ("b", [ Key_attr "a" ]); ("b", [ Key_text ]); ("g", [ Key_child "e" ]);
      ("g", [ Key_child "e"; Key_attr "a" ]); ("g", [ Key_child "e"; Key_child "b" ]);
      ("r", [ Key_child "g" ]) ]

(* Every kept name bucket and value table of [doc] against a fresh
   build, then every name through a lookup, which rebuilds the stale
   buckets. *)
let indexes_are_fresh doc =
  let d = Option.get doc.Node.doc in
  let fail what = QCheck.Test.fail_reportf "%s differs from a fresh build" what in
  List.iter
    (fun ((nm, path), tbl) ->
      let kept =
        List.sort compare (Hashtbl.fold (fun v b acc -> (v, Array.to_list b) :: acc) tbl [])
      in
      let fresh = fresh_table (scan_named doc nm) path in
      if
        not
          (List.length kept = List.length fresh
          && List.for_all2 (fun (v, a) (w, b) -> v = w && same_nodes a b) kept fresh)
      then fail (Printf.sprintf "the kept value table for %s" nm))
    d.Node.value_index;
  let names = [ "r"; "g"; "e"; "b" ] in
  (match d.Node.name_index with
  | Node.Ni_built { buckets; stale } ->
    List.iter
      (fun nm ->
        if not (List.mem nm stale) then
          let kept = Option.value ~default:[||] (Hashtbl.find_opt buckets nm) in
          if not (same_nodes (Array.to_list kept) (scan_named doc nm)) then
            fail ("the kept bucket " ^ nm))
      names
  | Node.Ni_unbuilt | Node.Ni_disabled -> ());
  List.iter
    (fun nm ->
      match Node.elements_by_name doc nm with
      | Some b when same_nodes (Array.to_list b) (scan_named doc nm) -> ()
      | _ -> fail ("the bucket " ^ nm))
    names;
  true

let prop_kept_indexes_are_fresh =
  QCheck.Test.make ~name:"kept indexes = fresh build" ~count:150 QCheck.small_nat
    (fun seed ->
      with_random_doc seed (fun st _ doc ->
          let probe () =
            List.iter (fun (nm, path) -> ignore (Node.elements_by_value doc nm path)) kept_tables
          in
          probe ();
          List.for_all
            (fun _ ->
              (try ignore (Patch.apply doc (random_patch st))
               with Patch.Patch_error _ -> ());
              let kept = indexes_are_fresh doc in
              probe ();
              kept && indexes_are_fresh doc)
            (List.init 6 Fun.id)))

(* Two readers in parallel domains look up the same stale name at once:
   both rebuild it, and each must get, and leave published, a complete
   bucket. *)
let test_stale_bucket_two_readers () =
  let doc =
    Xml_parser.parse_string ~uri:"s.xml"
      ("<r>" ^ String.concat "" (List.init 3000 (fun _ -> "<g><e/><b>x</b></g>")) ^ "</r>")
  in
  for round = 1 to 20 do
    ignore (Node.elements_by_name doc "e");
    ignore
      (Patch.apply doc
         (Patch.Insert { path = Printf.sprintf "/r/g[%d]" round; position = Patch.Last; xml = "<e/>" }));
    (match (Option.get doc.Node.doc).Node.name_index with
    | Node.Ni_built { stale; _ } -> check "the insert makes e stale" true (List.mem "e" stale)
    | _ -> Alcotest.fail "the name index was dropped");
    let expected = scan_named doc "e" in
    let ready = Atomic.make 0 in
    let reader () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do Domain.cpu_relax () done;
      Node.elements_by_name doc "e"
    in
    let a = Domain.spawn reader and b = Domain.spawn reader in
    List.iter
      (fun got ->
        match got with
        | Some arr -> check "a reader's bucket is whole" true (same_nodes (Array.to_list arr) expected)
        | None -> Alcotest.fail "the name index was disabled")
      [ Domain.join a; Domain.join b ];
    match Node.elements_by_name doc "e" with
    | Some arr -> check "the published bucket is whole" true (same_nodes (Array.to_list arr) expected)
    | None -> Alcotest.fail "the name index was disabled"
  done

let () =
  Alcotest.run "eval"
    [ ( "basics",
        [ Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
          Alcotest.test_case "logic" `Quick test_logic;
          Alcotest.test_case "sequences" `Quick test_sequences;
          Alcotest.test_case "atom kinds" `Quick test_atom_result_kinds;
          Alcotest.test_case "api surface" `Quick test_api_surface ] );
      ( "paths",
        [ Alcotest.test_case "navigation" `Quick test_paths;
          Alcotest.test_case "predicates" `Quick test_predicates;
          Alcotest.test_case "fn:id" `Quick test_fn_id;
          Alcotest.test_case "fn:idref" `Quick test_fn_idref ] );
      ( "control",
        [ Alcotest.test_case "flwor" `Quick test_flwor;
          Alcotest.test_case "order by" `Quick test_order_by;
          Alcotest.test_case "quantifiers" `Quick test_quantifiers;
          Alcotest.test_case "instance of" `Quick test_instance_of;
          Alcotest.test_case "cast/castable" `Quick test_cast;
          Alcotest.test_case "tokenize" `Quick test_tokenize;
          Alcotest.test_case "typeswitch" `Quick test_typeswitch ] );
      ( "builtins",
        [ Alcotest.test_case "strings" `Quick test_string_functions;
          Alcotest.test_case "numerics" `Quick test_numeric_functions;
          Alcotest.test_case "sequences" `Quick test_sequence_functions;
          Alcotest.test_case "more builtins" `Quick test_more_builtins;
          Alcotest.test_case "nodes" `Quick test_node_functions ] );
      ( "construction",
        [ Alcotest.test_case "constructors" `Quick test_constructors ] );
      ( "functions",
        [ Alcotest.test_case "user functions" `Quick test_user_functions;
          Alcotest.test_case "isolation" `Quick test_function_isolation;
          Alcotest.test_case "eval_expr api" `Quick test_eval_expr_api;
          Alcotest.test_case "errors" `Quick test_errors ] );
      ( "staged",
        [ Alcotest.test_case "unbound names in dead branches" `Quick
            test_unbound_names_in_dead_branches;
          Alcotest.test_case "numeric predicates" `Quick test_numeric_predicates;
          Alcotest.test_case "// collapse" `Quick test_descendant_collapse ] );
      ( "loop invariants",
        [ Alcotest.test_case "guarded error in a for body" `Quick
            test_guarded_error_in_body;
          Alcotest.test_case "guarded error in a predicate" `Quick
            test_guarded_error_in_predicate;
          Alcotest.test_case "nested loops" `Quick test_nested_loop_slots;
          Alcotest.test_case "constructors keep identities" `Quick
            test_constructors_in_loops;
          Alcotest.test_case "focus builtins in predicates" `Quick
            test_focus_builtins_in_predicates;
          Alcotest.test_case "hashed general =" `Quick test_hashed_general_eq;
          Alcotest.test_case "index steps" `Quick test_invariant_index_steps;
          Alcotest.test_case "positional sibling steps" `Quick
            test_positional_sibling_steps ] );
      ( "value index",
        Alcotest.test_case "regressions" `Quick test_value_probe_regressions
        :: Alcotest.test_case "two readers rebuild a stale bucket" `Quick
             test_stale_bucket_two_readers
        :: List.map QCheck_alcotest.to_alcotest
             [ prop_indexed_is_scanned; prop_indexed_is_scanned_after_edits;
               prop_kept_indexes_are_fresh ] ) ]
