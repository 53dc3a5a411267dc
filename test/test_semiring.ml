(* The semiring-annotated fixpoint kernel: ⊗/⊕ algebra unit tests,
   end-to-end [accumulate by] runs per kind, byte-parity of the bool
   semiring with the legacy IFP across the paper's four workload
   families (property-tested over generator seeds), and the min-cost
   kernel against a reference Bellman-Ford. *)

module Node = Fixq_xdm.Node
module Item = Fixq_xdm.Item
module Doc_registry = Fixq_xdm.Doc_registry
module Xml_parser = Fixq_xdm.Xml_parser
module Serializer = Fixq_xdm.Serializer
module Semiring = Fixq_semiring.Semiring
module Kernel = Fixq_semiring.Kernel
module Eval = Fixq_lang.Eval
module Rewrite = Fixq_lang.Rewrite
module Ast = Fixq_lang.Ast
module Analyze = Fixq_analysis.Analyze
module W = Fixq_workloads

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Semiring algebra                                                    *)
(* ------------------------------------------------------------------ *)

let test_kind_strings () =
  List.iter
    (fun k ->
      check "kind_of_string inverts kind_to_string" true
        (Semiring.kind_of_string (Semiring.kind_to_string k) = Some k))
    [ Semiring.Bool; Semiring.Count; Semiring.Max; Semiring.Min;
      Semiring.Why ];
  check "unknown kind" true (Semiring.kind_of_string "tropical" = None)

let test_stability () =
  let s = Semiring.stability in
  check "bool stable" true (s Semiring.Bool = Semiring.Stable);
  check "max stable" true (s Semiring.Max = Semiring.Stable);
  check "why stable" true (s Semiring.Why = Semiring.Stable);
  check "min p-stable" true (s Semiring.Min = Semiring.P_stable);
  check "count unstable" true (s Semiring.Count = Semiring.Unstable)

let test_improve_min () =
  let open Semiring in
  check "strict decrease improves" true
    (improve Min ~old:(Num 5.0) ~incoming:(Num 3.0)
    = Some (Num 3.0, Num 3.0));
  check "equal does not improve" true
    (improve Min ~old:(Num 3.0) ~incoming:(Num 3.0) = None);
  check "increase does not improve" true
    (improve Min ~old:(Num 3.0) ~incoming:(Num 7.0) = None)

let test_improve_max () =
  let open Semiring in
  check "strict increase improves" true
    (improve Max ~old:(Num 2.0) ~incoming:(Num 4.0)
    = Some (Num 4.0, Num 4.0));
  check "decrease does not improve" true
    (improve Max ~old:(Num 4.0) ~incoming:(Num 2.0) = None)

let test_improve_count () =
  let open Semiring in
  check "count always accumulates" true
    (improve Count ~old:(Num 2.0) ~incoming:(Num 3.0)
    = Some (Num 5.0, Num 3.0));
  check "zero increment does not improve" true
    (improve Count ~old:(Num 2.0) ~incoming:(Num 0.0) = None)

let test_improve_why () =
  let open Semiring in
  let w xs = Wit (Int_set.of_list xs) in
  (match improve Why ~old:(w [ 1 ]) ~incoming:(w [ 1; 2 ]) with
  | Some (Wit u, Wit fresh) ->
    check "union stored" true (Int_set.equal u (Int_set.of_list [ 1; 2 ]));
    check "only new witnesses refeed" true
      (Int_set.equal fresh (Int_set.singleton 2))
  | _ -> Alcotest.fail "expected improvement");
  check "subset does not improve" true
    (improve Why ~old:(w [ 1; 2 ]) ~incoming:(w [ 2 ]) = None)

let test_ann_strings () =
  let open Semiring in
  check_str "mark" "true" (ann_to_string Mark);
  check_str "integral number" "4" (ann_to_string (Num 4.0));
  check_str "fractional number" "2.5" (ann_to_string (Num 2.5));
  check_str "infinity" "INF" (ann_to_string (Num infinity));
  check_str "witness set" "{3,7}"
    (ann_to_string (Wit (Int_set.of_list [ 7; 3 ])))

(* ------------------------------------------------------------------ *)
(* End-to-end: accumulate by on a handwritten weighted curriculum      *)
(* ------------------------------------------------------------------ *)

let registry = Doc_registry.create ()

let weighted_doc =
  {|<!DOCTYPE curriculum [ <!ATTLIST course code ID #REQUIRED> ]>
<curriculum>
  <course code="c1" cost="1"><prerequisites><pre_code>c2</pre_code><pre_code>c3</pre_code></prerequisites></course>
  <course code="c2" cost="2"><prerequisites><pre_code>c4</pre_code></prerequisites></course>
  <course code="c3" cost="9"><prerequisites><pre_code>c4</pre_code></prerequisites></course>
  <course code="c4" cost="3"><prerequisites/></course>
</curriculum>|}

let () =
  Doc_registry.register ~registry "curriculum.xml"
    (Xml_parser.parse_string ~strip_whitespace:true weighted_doc)

let run_annotated ?(strategy = Eval.Auto) src =
  let ev = Eval.create ~registry ~strategy () in
  let result = Eval.run_string ev src in
  (result, Eval.last_annotations ev)

let code_of n =
  List.find_opt (fun a -> Node.name a = "code") (Node.attributes n)
  |> Option.fold ~none:"" ~some:Node.string_value

let ann_by_code = function
  | None -> []
  | Some (_, entries) ->
    List.map (fun (n, a) -> (code_of n, Semiring.ann_to_string a)) entries
    |> List.sort compare

let q1_min =
  {|with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c1"]
recurse $x/id(./prerequisites/pre_code)
accumulate by min(number(./@cost))|}

let test_min_cost_small () =
  let (result, anns) = run_annotated q1_min in
  (* c2 costs 2, c3 costs 9, c4 via c2 costs 2+3=5 (not 9+3). *)
  Alcotest.(check (list (pair string string)))
    "cheapest costs"
    [ ("c2", "2"); ("c3", "9"); ("c4", "5") ]
    (ann_by_code anns);
  check_int "result is the node set" 3 (List.length result)

let test_count_paths () =
  let (_, anns) =
    run_annotated
      {|with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c1"]
recurse $x/id(./prerequisites/pre_code)
accumulate by count|}
  in
  (* c4 is derivable through c2 and through c3: two paths. *)
  Alcotest.(check (list (pair string string)))
    "path multiplicities"
    [ ("c2", "1"); ("c3", "1"); ("c4", "2") ]
    (ann_by_code anns)

let test_why_witnesses () =
  let (_, anns) =
    run_annotated
      {|with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c2" or @code="c3"]
recurse $x/id(./prerequisites/pre_code)
accumulate by why|}
  in
  match anns with
  | Some (Semiring.Why, entries) ->
    let c4 =
      List.find_opt (fun (n, _) -> code_of n = "c4") entries
    in
    (match c4 with
    | Some (_, Semiring.Wit w) ->
      check_int "c4 supported by both seeds" 2 (Semiring.Int_set.cardinal w)
    | _ -> Alcotest.fail "no witness annotation for c4")
  | _ -> Alcotest.fail "expected why annotations"

let test_max_bottleneck () =
  let (_, anns) =
    run_annotated
      {|with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c1"]
recurse $x/id(./prerequisites/pre_code)
accumulate by max(number(./@cost))|}
  in
  (* Widest path: c4's bottleneck via c3 is min(9,3)=3; via c2 min(2,3)=2;
     max of the two is 3. Seeds propagate ∞, so c2/c3 keep their own
     weight. *)
  Alcotest.(check (list (pair string string)))
    "bottleneck ratings"
    [ ("c2", "2"); ("c3", "9"); ("c4", "3") ]
    (ann_by_code anns)

let test_both_engines_agree () =
  List.iter
    (fun engine ->
      let report =
        Fixq.run ~registry ~engine q1_min
      in
      check_str
        "annotated result on both engines"
        "<course code=\"c2\" cost=\"2\"><prerequisites><pre_code>c4</pre_code></prerequisites></course> <course code=\"c3\" cost=\"9\"><prerequisites><pre_code>c4</pre_code></prerequisites></course> <course code=\"c4\" cost=\"3\"><prerequisites/></course>"
        (Serializer.seq_to_string report.Fixq.result);
      check "annotations surfaced" true
        (List.length report.Fixq.annotations = 3);
      check "semiring surfaced" true (report.Fixq.semiring = Some "min"))
    [ Fixq.Interpreter Fixq.Auto; Fixq.Algebra Fixq.Auto ]

(* ------------------------------------------------------------------ *)
(* Divergence classification and gates                                 *)
(* ------------------------------------------------------------------ *)

let parse src = Fixq_lang.Parser.parse_program src

let diag_codes src =
  let a = Analyze.analyze (parse src) in
  List.map (fun d -> d.Fixq_analysis.Diag.code) a.Analyze.diagnostics

let test_semiring_diagnostics () =
  let counted =
    {|with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c1"]
recurse $x/id(./prerequisites/pre_code) accumulate by count|}
  in
  check "count closure warns FQ043" true
    (List.mem "FQ043" (diag_codes counted));
  check "min closure informs FQ044" true
    (List.mem "FQ044" (diag_codes q1_min));
  let plain =
    {|with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c1"]
recurse $x/id(./prerequisites/pre_code)|}
  in
  check "plain IFP has neither" true
    (not
       (List.exists
          (fun c -> c = "FQ043" || c = "FQ044")
          (diag_codes plain)))

let test_classification () =
  let report src =
    match (Analyze.analyze (parse src)).Analyze.ifps with
    | r :: _ -> r
    | [] -> Alcotest.fail "no IFP"
  in
  let counted =
    {|with $x seeded by doc("c.xml")//a recurse $x/b accumulate by count|}
  in
  (match (report counted).Analyze.divergence with
  | Analyze.May_diverge _ -> ()
  | _ -> Alcotest.fail "count must be may-diverge");
  let min_q =
    {|with $x seeded by doc("c.xml")//a recurse $x/b accumulate by min(number(./@w))|}
  in
  check "min is bounded at best" true
    ((report min_q).Analyze.divergence = Analyze.Bounded);
  let why_q = {|with $x seeded by doc("c.xml")//a recurse $x/b accumulate by why|} in
  check "why keeps the structural verdict" true
    ((report why_q).Analyze.divergence = Analyze.Terminates);
  check "semiring recorded" true
    ((report why_q).Analyze.semiring = Some Semiring.Why)

let test_gates () =
  let annotated =
    parse
      {|with $x seeded by doc("c.xml")//a recurse $x/b accumulate by why|}
  in
  let plain = parse {|with $x seeded by doc("c.xml")//a recurse $x/b|} in
  check "plain IVM-eligible" true
    (Analyze.ivm_eligibility plain = Analyze.Ivm_full);
  (match Analyze.ivm_eligibility annotated with
  | Analyze.Ivm_ineligible _ -> ()
  | _ -> Alcotest.fail "annotated must be IVM-ineligible")

(* ------------------------------------------------------------------ *)
(* Property: bool semiring ≡ legacy IFP on the four workload families  *)
(* ------------------------------------------------------------------ *)

(* Rewrite every IFP of a program to [accumulate by bool]. *)
let boolify p =
  let rewrite e =
    Rewrite.map_expr
      (function
        | Ast.Ifp { var; seed; body; accum = None } ->
          Ast.Ifp
            { var; seed; body;
              accum = Some { Ast.kind = Semiring.Bool; weight = None } }
        | e -> e)
      e
  in
  { Ast.functions =
      List.map (fun fd -> { fd with Ast.body = rewrite fd.Ast.body })
        p.Ast.functions;
    variables = List.map (fun (v, e) -> (v, rewrite e)) p.Ast.variables;
    main = rewrite p.Ast.main }

let family_runs seed =
  let registry = Doc_registry.create () in
  ignore
    (W.Curriculum.load ~registry
       { W.Curriculum.default with W.Curriculum.courses = 60; seed });
  ignore
    (W.Xmark.load ~registry
       { W.Xmark.default with W.Xmark.scale = 0.001; seed });
  ignore
    (W.Shakespeare.load ~registry
       { W.Shakespeare.default with W.Shakespeare.acts = 2; seed });
  ignore
    (W.Hospital.load ~registry
       { W.Hospital.default with W.Hospital.total = 120; seed });
  (registry,
   [ W.Queries.q1; W.Queries.curriculum_check; W.Queries.bidder_network;
     W.Queries.dialogs; W.Queries.hospital ])

let bool_parity_on ~engine seed =
  let (registry, queries) = family_runs seed in
  List.for_all
    (fun src ->
      let p = parse src in
      let plain = Fixq.run_program ~registry ~engine p in
      let annotated = Fixq.run_program ~registry ~engine (boolify p) in
      Serializer.seq_to_string plain.Fixq.result
      = Serializer.seq_to_string annotated.Fixq.result
      && plain.Fixq.depth = annotated.Fixq.depth
      && plain.Fixq.nodes_fed = annotated.Fixq.nodes_fed)
    queries

let prop_bool_parity_interp =
  QCheck2.Test.make ~count:8
    ~name:"bool semiring byte-identical to legacy IFP (interpreter)"
    QCheck2.Gen.(int_range 1 1000)
    (bool_parity_on ~engine:(Fixq.Interpreter Fixq.Auto))

let prop_bool_parity_naive =
  QCheck2.Test.make ~count:4
    ~name:"bool semiring byte-identical to legacy IFP (naive)"
    QCheck2.Gen.(int_range 1 1000)
    (bool_parity_on ~engine:(Fixq.Interpreter Fixq.Naive))

(* ------------------------------------------------------------------ *)
(* Property: min-cost kernel ≡ reference Bellman-Ford                  *)
(* ------------------------------------------------------------------ *)

let min_cost_matches seed =
  let registry = Doc_registry.create () in
  let doc =
    W.Curriculum.load_weighted ~registry
      { W.Curriculum.default with W.Curriculum.courses = 80; seed }
  in
  (* Seed at a course that provably reaches prerequisites, so the
     comparison is never vacuously empty = empty. *)
  let from =
    let rec go i =
      if i > 80 then "c1"
      else
        let c = Printf.sprintf "c%d" i in
        if W.Curriculum.cheapest_prerequisite_costs doc ~from:c <> [] then c
        else go (i + 1)
    in
    go 1
  in
  let ev = Eval.create ~registry () in
  ignore (Eval.run_string ev (W.Queries.cheapest_prerequisite from));
  let kernel =
    match Eval.last_annotations ev with
    | Some (Semiring.Min, entries) ->
      List.map
        (fun (n, a) ->
          match a with
          | Semiring.Num d -> (code_of n, d)
          | _ -> Alcotest.fail "non-numeric min annotation")
        entries
      |> List.sort compare
    | _ -> Alcotest.fail "expected min annotations"
  in
  let reference =
    W.Curriculum.cheapest_prerequisite_costs doc ~from
    |> List.sort compare
  in
  kernel = reference && kernel <> []

let prop_min_bellman_ford =
  QCheck2.Test.make ~count:15
    ~name:"min-cost kernel matches reference Bellman-Ford"
    QCheck2.Gen.(int_range 1 1000)
    min_cost_matches

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "semiring"
    [ ( "algebra",
        [ Alcotest.test_case "kind strings" `Quick test_kind_strings;
          Alcotest.test_case "stability" `Quick test_stability;
          Alcotest.test_case "improve min" `Quick test_improve_min;
          Alcotest.test_case "improve max" `Quick test_improve_max;
          Alcotest.test_case "improve count" `Quick test_improve_count;
          Alcotest.test_case "improve why" `Quick test_improve_why;
          Alcotest.test_case "annotation strings" `Quick test_ann_strings ] );
      ( "end-to-end",
        [ Alcotest.test_case "min cost" `Quick test_min_cost_small;
          Alcotest.test_case "count paths" `Quick test_count_paths;
          Alcotest.test_case "why witnesses" `Quick test_why_witnesses;
          Alcotest.test_case "max bottleneck" `Quick test_max_bottleneck;
          Alcotest.test_case "engines agree" `Quick test_both_engines_agree ]
      );
      ( "analysis",
        [ Alcotest.test_case "FQ043/FQ044" `Quick test_semiring_diagnostics;
          Alcotest.test_case "classification" `Quick test_classification;
          Alcotest.test_case "ivm gate" `Quick test_gates ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_bool_parity_interp;
          QCheck_alcotest.to_alcotest prop_bool_parity_naive;
          QCheck_alcotest.to_alcotest prop_min_bellman_ford ] ) ]
