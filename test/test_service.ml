(* The fixq_service subsystem: JSON wire format, LRU caches, registry
   generations, the prepared-query layer, and the server's caching and
   failure behaviour end-to-end (through Server.handle_line, exactly
   what the pipe/socket transports feed). *)

module Service = Fixq_service
module Json = Service.Json
module Lru = Service.Lru
module Store = Service.Store
module Prepared = Service.Prepared
module Server = Service.Server
module Doc_registry = Fixq_xdm.Doc_registry
module Parser = Fixq_lang.Parser

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let samples =
    [ "null"; "true"; "false"; "0"; "-12"; "3.5"; "\"\"";
      "\"a \\\"b\\\" \\\\ \\n\""; "[]"; "[1,2,3]"; "{}";
      "{\"a\":1,\"b\":[true,null],\"c\":{\"d\":\"e\"}}" ]
  in
  List.iter
    (fun s -> checks s s (Json.to_string (Json.parse s)))
    samples

let test_json_unicode () =
  checks "u-escape" "\"é\"" (Json.to_string (Json.parse {|"\u00e9"|}));
  (* surrogate pair: U+1F600 *)
  checks "surrogate" "\"\240\159\152\128\""
    (Json.to_string (Json.parse {|"\ud83d\ude00"|}));
  checks "control" {|"a\nb"|} (Json.to_string (Json.parse "\"a\\nb\""))

let test_json_errors () =
  let fails s =
    match Json.parse s with
    | _ -> Alcotest.failf "expected parse failure on %S" s
    | exception Json.Parse_error _ -> ()
  in
  List.iter fails
    [ ""; "{"; "[1,"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}";
      "{\"a\":}"; "nul"; "[1]]" ]

let test_json_members () =
  let j = Json.parse {|{"op":"run","n":3,"b":true,"f":2.5}|} in
  checks "op" "run" (Option.get (Json.str_opt (Json.member "op" j)));
  checki "n" 3 (Option.get (Json.int_opt (Json.member "n" j)));
  checkb "b" true (Option.get (Json.bool_opt (Json.member "b" j)));
  checkb "f not int" true (Json.int_opt (Json.member "f" j) = None);
  checkb "absent" true (Json.member "missing" j = Json.Null)

(* ------------------------------------------------------------------ *)
(* Lru                                                                 *)
(* ------------------------------------------------------------------ *)

let test_lru_eviction () =
  let c = Lru.create ~capacity:2 () in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  Lru.put c "c" 3;  (* evicts a *)
  checkb "a evicted" true (Lru.find c "a" = None);
  checkb "b live" true (Lru.find c "b" = Some 2);
  checkb "c live" true (Lru.find c "c" = Some 3);
  checki "len" 2 (Lru.length c)

let test_lru_promotion () =
  let c = Lru.create ~capacity:2 () in
  Lru.put c "a" 1;
  Lru.put c "b" 2;
  ignore (Lru.find c "a");  (* a becomes MRU, b is now LRU *)
  Lru.put c "c" 3;  (* evicts b *)
  checkb "b evicted" true (Lru.find c "b" = None);
  checkb "a survived" true (Lru.find c "a" = Some 1);
  check
    Alcotest.(list string)
    "mru order" [ "a"; "c" ]
    (List.sort compare (Lru.keys c))

let test_lru_counters () =
  let c = Lru.create ~capacity:4 () in
  ignore (Lru.find c "x");  (* miss *)
  Lru.put c "x" 0;
  ignore (Lru.find c "x");  (* hit *)
  ignore (Lru.find c "y");  (* miss *)
  checki "hits" 1 (Lru.hits c);
  checki "misses" 2 (Lru.misses c)

(* ------------------------------------------------------------------ *)
(* Doc_registry generations                                            *)
(* ------------------------------------------------------------------ *)

let parse_doc xml = Fixq_xdm.Xml_parser.parse_string ~uri:"t.xml" xml

let test_registry_generation () =
  let registry = Doc_registry.create () in
  let gen () = Doc_registry.generation ~registry () in
  checki "fresh" 0 (gen ());
  Doc_registry.register ~registry "a.xml" (parse_doc "<a/>");
  checki "after register" 1 (gen ());
  Doc_registry.register ~registry "a.xml" (parse_doc "<a2/>");
  checki "re-register bumps" 2 (gen ());
  Doc_registry.unregister ~registry "missing.xml";
  checki "no-op unregister keeps" 2 (gen ());
  Doc_registry.unregister ~registry "a.xml";
  checki "unregister bumps" 3 (gen ());
  checkb "gone" true (Doc_registry.find ~registry "a.xml" = None);
  Doc_registry.register ~registry "b.xml" (parse_doc "<b/>");
  Doc_registry.clear ~registry ();
  checki "clear bumps" 5 (gen ());
  check Alcotest.(list string) "uris empty" [] (Doc_registry.uris ~registry ())

(* ------------------------------------------------------------------ *)
(* Prepared                                                            *)
(* ------------------------------------------------------------------ *)

let curriculum_xml =
  {|<!DOCTYPE curriculum [ <!ATTLIST course code ID #REQUIRED> ]>
<curriculum>
  <course code="c1"><prerequisites><pre_code>c2</pre_code><pre_code>c3</pre_code></prerequisites></course>
  <course code="c2"><prerequisites><pre_code>c4</pre_code></prerequisites></course>
  <course code="c3"><prerequisites/></course>
  <course code="c4"><prerequisites/></course>
</curriculum>|}

let q1 =
  {|with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c1"]
    recurse $x/id(./prerequisites/pre_code)|}

let q2 =
  {|let $seed := (<a/>,<b><c><d/></c></b>) return
    with $x seeded by $seed
    recurse if (count($x/self::a)) then $x/* else ()|}

let make_store () =
  let store = Store.create () in
  Store.load_xml store ~uri:"curriculum.xml" curriculum_xml;
  store

let prepare store q =
  Prepared.prepare ~store ~stratified:false ~max_iterations:10_000 q

let test_prepared_modes () =
  let store = make_store () in
  let p1 = prepare store q1 in
  checki "q1 one ifp" 1 p1.Prepared.ifp_count;
  checkb "q1 syntactic" true p1.Prepared.syntactic;
  checkb "q1 algebraic" true (p1.Prepared.algebraic = Some true);
  checkb "q1 pins delta" true (p1.Prepared.mode = Fixq.Delta);
  checkb "q1 licensed by figure 5" true
    (Prepared.delta_by p1 = Some "syntactic");
  checkb "q1 has plan" true (p1.Prepared.plan <> None);
  let p2 = prepare store q2 in
  checkb "q2 syntactic" false p2.Prepared.syntactic;
  checkb "q2 algebraic" true (p2.Prepared.algebraic = Some false);
  checkb "q2 pins naive" true (p2.Prepared.mode = Fixq.Naive);
  checkb "q2 unlicensed" true (Prepared.delta_by p2 = None);
  let p3 = prepare store "1 + 1" in
  checki "no ifp" 0 p3.Prepared.ifp_count;
  checkb "no plan" true (p3.Prepared.plan = None)

let test_prepared_multi_ifp_keeps_auto () =
  let store = make_store () in
  let q =
    {|(with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c1"]
       recurse $x/id(./prerequisites/pre_code)),
      (with $y seeded by doc("curriculum.xml")/curriculum/course[@code="c2"]
       recurse $y/id(./prerequisites/pre_code))|}
  in
  let p = prepare store q in
  checki "two ifps" 2 p.Prepared.ifp_count;
  checkb "auto" true (p.Prepared.mode = Fixq.Auto)

(* Section 4.1: Figure 5 rejects the unfolded Q1 but the ∪ push-up
   accepts it, and either check licenses Delta (Theorem 3.2) — so the
   pin is Delta for every engine, while Example 2.4 stays Naive. *)
let test_prepared_pins_algebraic_licence () =
  let store = make_store () in
  let p = prepare store Fixq_workloads.Queries.q1_unfolded in
  checkb "figure 5 rejects" false p.Prepared.syntactic;
  checkb "push-up accepts" true (p.Prepared.algebraic = Some true);
  checkb "pins delta" true (p.Prepared.mode = Fixq.Delta);
  checkb "licensed by the algebraic check" true
    (Prepared.delta_by p = Some "algebraic");
  (* FQ030 is a gap in Figure 5's coverage here, not a fact about the
     body: info severity, and it says Delta stays licensed *)
  (match
     List.find_opt
       (fun d -> d.Fixq_analysis.Diag.code = "FQ030")
       (Prepared.diagnostics p)
   with
  | Some d ->
    checkb "FQ030 is info" true
      (d.Fixq_analysis.Diag.severity = Fixq_analysis.Diag.Info);
    let suffix = "Delta is still licensed by the algebraic check" in
    let m = d.Fixq_analysis.Diag.message in
    let n = String.length m and k = String.length suffix in
    checkb "FQ030 names the licence" true
      (n >= k && String.sub m (n - k) k = suffix)
  | None -> Alcotest.fail "expected FQ030");
  let p2 = prepare store Fixq_workloads.Queries.q2 in
  checkb "q2 pins naive" true (p2.Prepared.mode = Fixq.Naive);
  checkb "q2 unlicensed" true (Prepared.delta_by p2 = None)

(* Prepare captures the first IFP site once and derives the SQL
   rendering and the push-up verdict from that capture: all verdicts
   must equal what the standalone entry points compute on the same
   registry, for Q1, Q2, the four Table-2 families, Section 4.1's
   unfolded Q1 and the Section-6 stratified difference, with and
   without the refinement. *)
let test_prepared_parity_with_check () =
  let module Q = Fixq_workloads.Queries in
  let store = make_store () in
  Store.load_generated store ~uri:"auction.xml" ~kind:"xmark" ~size:0.002
    ~seed:1;
  Store.load_generated store ~uri:"romeo.xml" ~kind:"play" ~size:0. ~seed:1;
  Store.load_generated store ~uri:"hospital.xml" ~kind:"hospital"
    ~size:200. ~seed:1;
  let registry = Store.registry store in
  let stratified_except =
    {|with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c1"]
      recurse ($x/id(./prerequisites/pre_code)
               except doc("curriculum.xml")/curriculum/course[@code="c3"])|}
  in
  List.iter
    (fun (name, q) ->
      List.iter
        (fun stratified ->
          let label what =
            Printf.sprintf "%s%s: %s" name
              (if stratified then " (stratified)" else "") what
          in
          let p =
            Prepared.prepare ~store ~stratified ~max_iterations:10_000 q
          in
          let program = Parser.parse_program q in
          match
            Fixq.distributivity_verdicts ~registry ~stratified program
          with
          | None -> checki (label "no ifp") 0 p.Prepared.ifp_count
          | Some (syn, alg) ->
            checkb (label "site captured") true (p.Prepared.plan <> None);
            checkb (label "syntactic verdict") syn p.Prepared.syntactic;
            checkb (label "algebraic verdict") true
              (alg = p.Prepared.algebraic);
            checkb (label "sql from the capture") true
              (p.Prepared.sql = Fixq.sql_of_first_ifp ~registry program))
        [ false; true ])
    [ ("q1", q1); ("q2", q2); ("no ifp", "count((1,2,3))");
      ("bidder", Q.bidder_network); ("dialogs", Q.dialogs);
      ("hospital", Q.hospital); ("q1 unfolded", Q.q1_unfolded);
      ("except", stratified_except) ]

let test_prepared_rejects () =
  let store = make_store () in
  let rejected q =
    match prepare store q with
    | _ -> Alcotest.failf "expected Rejected on %S" q
    | exception Prepared.Rejected _ -> ()
  in
  rejected "1 +";  (* parse error *)
  rejected "count($nope)"  (* static error *)

(* ------------------------------------------------------------------ *)
(* Server: caching and invalidation end-to-end                         *)
(* ------------------------------------------------------------------ *)

let mk_server () = Server.create ()

let send server line =
  let (response, _) = Server.handle_line server line in
  Json.parse response

let ok j = Json.bool_opt (Json.member "ok" j) = Some true
let field name j = Json.member name j
let sfield name j = Option.get (Json.str_opt (field name j))

let load_doc_line =
  Json.to_string
    (Json.Obj
       [ ("op", Json.Str "load-doc"); ("uri", Json.Str "curriculum.xml");
         ("xml", Json.Str curriculum_xml) ])

let run_line =
  Json.to_string
    (Json.Obj
       [ ("op", Json.Str "run");
         ("query",
          Json.Str
            ("count(" ^ q1 ^ ")")) ])

(* The ISSUE's acceptance scenario: same query twice hits both caches;
   a load-doc between runs invalidates the result cache but not the
   prepared query; the stats op reports the counters. *)
let test_server_cache_lifecycle () =
  let server = mk_server () in
  checkb "load ok" true (ok (send server load_doc_line));
  let r1 = send server run_line in
  checkb "r1 ok" true (ok r1);
  checks "r1 result" "3" (sfield "result" r1);
  checks "r1 prepared" "miss" (sfield "prepared_cache" r1);
  checks "r1 results" "miss" (sfield "result_cache" r1);
  checks "r1 mode" "delta" (sfield "mode" r1);
  let r2 = send server run_line in
  checks "r2 prepared" "hit" (sfield "prepared_cache" r2);
  checks "r2 results" "hit" (sfield "result_cache" r2);
  checks "r2 result" "3" (sfield "result" r2);
  checki "r2 nodes_fed preserved" 4
    (Option.get (Json.int_opt (field "nodes_fed" r2)));
  (* swap the document: generation bump must invalidate results only *)
  checkb "reload ok" true (ok (send server load_doc_line));
  let r3 = send server run_line in
  checks "r3 prepared survives reload" "hit" (sfield "prepared_cache" r3);
  checks "r3 results invalidated" "miss" (sfield "result_cache" r3);
  let r4 = send server run_line in
  checks "r4 results hit again" "hit" (sfield "result_cache" r4);
  let st = send server {|{"op":"stats"}|} in
  let stats = field "stats" st in
  let cache name counter =
    Option.get (Json.int_opt (field counter (field name stats)))
  in
  checki "prepared hits" 3 (cache "prepared" "hits");
  checki "prepared misses" 1 (cache "prepared" "misses");
  checki "result hits" 2 (cache "results" "hits");
  checki "result misses" 2 (cache "results" "misses");
  checki "generation" 2
    (Option.get (Json.int_opt (field "generation" stats)))

(* Theorem 3.2 end to end: the default (pinned) mode may run Delta on
   the strength of either check, and must answer byte-for-byte what a
   forced Naive run does — over the four Table-2 families, the unfolded
   Q1 (licensed by the algebraic check alone) and random curriculum
   seeds. *)
let prop_default_mode_matches_naive =
  let module W = Fixq_workloads in
  QCheck2.Test.make ~count:6 ~name:"default-mode run = naive run"
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 12 60))
    (fun (seed, courses) ->
      let server = mk_server () in
      let load uri kind size seed =
        let r =
          send server
            (Json.to_string
               (Json.Obj
                  [ ("op", Json.Str "load-doc"); ("uri", Json.Str uri);
                    ("generate", Json.Str kind); ("size", Json.Num size);
                    ("seed", Json.of_int seed) ]))
        in
        if not (ok r) then QCheck2.Test.fail_reportf "load %s failed" uri
      in
      load "auction.xml" "xmark" 0.002 11;
      load "romeo.xml" "play" 0. 11;
      load "curriculum.xml" "curriculum" (float_of_int courses) seed;
      load "hospital.xml" "hospital" 200. 11;
      let run ?mode q =
        send server
          (Json.to_string
             (Json.Obj
                ([ ("op", Json.Str "run"); ("query", Json.Str q);
                   ("cache", Json.Bool false) ]
                @ match mode with
                  | Some m -> [ ("mode", Json.Str m) ]
                  | None -> [])))
      in
      List.for_all
        (fun (family, q) ->
          let default = run q and naive = run ~mode:"naive" q in
          if not (ok default && ok naive) then
            QCheck2.Test.fail_reportf "%s: run failed" family
          else if sfield "result" default <> sfield "result" naive then
            QCheck2.Test.fail_reportf "%s (seed %d, %d courses): %s <> %s"
              family seed courses (sfield "result" default)
              (sfield "result" naive)
          else if
            family = "q1_unfolded"
            && Json.bool_opt (field "used_delta" default) <> Some true
          then QCheck2.Test.fail_reportf "q1_unfolded: default ran Naive"
          else true)
        [ ("bidder", W.Queries.bidder_network); ("dialogs", W.Queries.dialogs);
          ("curriculum", W.Queries.curriculum_check);
          ("hospital", W.Queries.hospital);
          ("q1_unfolded", W.Queries.q1_unfolded) ])

let test_server_engines_agree () =
  let server = mk_server () in
  ignore (send server load_doc_line);
  let run engine =
    send server
      (Json.to_string
         (Json.Obj
            [ ("op", Json.Str "run"); ("engine", Json.Str engine);
              ("query", Json.Str ("count(" ^ q1 ^ ")")) ]))
  in
  let ri = run "interp" in
  let ra = run "algebra" in
  checkb "both ok" true (ok ri && ok ra);
  checks "same result" (sfield "result" ri) (sfield "result" ra);
  (* distinct engine configurations must not share result-cache slots *)
  checks "algebra cold" "miss" (sfield "result_cache" ra)

let test_server_failures_stay_up () =
  let server = mk_server () in
  let err line =
    let r = send server line in
    checkb ("not ok: " ^ line) false (ok r);
    Option.get (Json.str_opt (field "error" r))
  in
  ignore (err "this is not json");
  ignore (err {|{"no_op":1}|});
  ignore (err {|{"op":"frobnicate"}|});
  ignore (err {|{"op":"run"}|});
  ignore (err {|{"op":"run","query":"1 +"}|});
  ignore (err {|{"op":"run","query":"count($nope)"}|});
  ignore (err {|{"op":"load-doc","uri":"x.xml","xml":"<unclosed>"}|});
  ignore (err {|{"op":"load-doc","uri":"x.xml","generate":"nope"}|});
  (* iteration budget: divergent IFP degrades to an error response *)
  let e =
    err {|{"op":"run","query":"with $x seeded by <a/> recurse <b/>","max_iterations":10}|}
  in
  checkb "diverged reported" true
    (String.length e > 0 && String.sub e 0 12 = "IFP diverged");
  (* wall-clock budget: a deadline in the past trips on round one *)
  let e =
    err {|{"op":"run","query":"with $x seeded by <a/> recurse <b/>","timeout_ms":0}|}
  in
  checkb "deadline reported" true
    (String.length e >= 8 && String.sub e 0 8 = "deadline");
  (* and the server still serves *)
  let r = send server {|{"op":"run","query":"1 + 1"}|} in
  checkb "alive" true (ok r);
  checks "alive result" "2" (sfield "result" r)

let test_server_cache_bypass () =
  let server = mk_server () in
  ignore (send server load_doc_line);
  let line =
    Json.to_string
      (Json.Obj
         [ ("op", Json.Str "run"); ("cache", Json.Bool false);
           ("query", Json.Str ("count(" ^ q1 ^ ")")) ])
  in
  let r1 = send server line in
  let r2 = send server line in
  checks "bypass never hits" "miss" (sfield "result_cache" r2);
  checks "but prepared does" "hit" (sfield "prepared_cache" r2);
  checkb "results agree" true (sfield "result" r1 = sfield "result" r2)

let test_server_shutdown_and_ids () =
  let server = mk_server () in
  let (resp, stop) = Server.handle_line server {|{"op":"ping","id":42}|} in
  checkb "ping continues" false stop;
  let j = Json.parse resp in
  checki "id echoed" 42 (Option.get (Json.int_opt (field "id" j)));
  let (resp, stop) =
    Server.handle_line server {|{"op":"shutdown","id":"bye"}|}
  in
  checkb "shutdown stops" true stop;
  checks "id echoed on shutdown" "bye" (sfield "id" (Json.parse resp))

let test_server_unload_and_generated () =
  let server = mk_server () in
  let r =
    send server
      {|{"op":"load-doc","uri":"c.xml","generate":"curriculum","size":12,"seed":5}|}
  in
  checkb "generated ok" true (ok r);
  let r = send server {|{"op":"run","query":"count(doc(\"c.xml\")/curriculum/course)"}|} in
  checks "twelve courses" "12" (sfield "result" r);
  let r = send server {|{"op":"unload-doc","uri":"c.xml"}|} in
  checki "unload bumps generation" 2
    (Option.get (Json.int_opt (field "generation" r)));
  let r = send server {|{"op":"run","query":"count(doc(\"c.xml\")/curriculum/course)"}|} in
  checkb "doc gone" false (ok r)

(* The analyzer's divergence verdict gates serving: an un-budgeted
   may-diverge query is refused up front (FQ040) instead of spinning
   against the config backstop; any explicit budget, or a verdict of
   terminates/bounded, lets it through. *)
let test_server_divergence_refusal () =
  let server = mk_server () in
  let diverging = {|with $x seeded by 1 recurse $x * 1|} in
  let r =
    send server
      (Json.to_string
         (Json.Obj [ ("op", Json.Str "run"); ("query", Json.Str diverging) ]))
  in
  checkb "refused" false (ok r);
  checks "code" "FQ040" (sfield "code" r);
  checks "class" "may-diverge" (sfield "divergence" r);
  let e = sfield "error" r in
  checkb "explains the refusal" true
    (String.length e >= 17 && String.sub e 0 17 = "query may diverge");
  (* the same query with an iteration budget clears the gate: it is
     attempted (and fails downstream on its own merits — atoms have no
     document order), not refused up front *)
  let r =
    send server
      (Json.to_string
         (Json.Obj
            [ ("op", Json.Str "run"); ("query", Json.Str diverging);
              ("max_iterations", Json.Num 10.) ]))
  in
  checkb "budgeted not refused" true (field "code" r = Json.Null);
  (* a budgeted constructor-divergent query likewise reaches the
     evaluator and trips the iteration budget, not the gate *)
  let r =
    send server
      {|{"op":"run","query":"with $x seeded by <a/> recurse <b/>","max_iterations":10}|}
  in
  let e = sfield "error" r in
  checkb "budget trips, not the gate" true
    (String.length e >= 12 && String.sub e 0 12 = "IFP diverged");
  (* node-only queries are classified terminates: no budget required *)
  ignore (send server load_doc_line);
  let r =
    send server
      (Json.to_string
         (Json.Obj [ ("op", Json.Str "run"); ("query", Json.Str q1) ]))
  in
  checkb "terminating unbudgeted ok" true (ok r);
  (* refusals are counted *)
  let st = send server {|{"op":"stats"}|} in
  let analysis = field "analysis" (field "stats" st) in
  checki "refused counted" 1
    (Option.get (Json.int_opt (field "refused" analysis)))

let test_server_check_diagnostics () =
  let server = mk_server () in
  ignore (send server load_doc_line);
  let check_op q =
    send server
      (Json.to_string
         (Json.Obj [ ("op", Json.Str "check"); ("query", Json.Str q) ]))
  in
  let r = check_op q1 in
  checkb "check ok" true (ok r);
  checks "divergence surfaced" "terminates" (sfield "divergence" r);
  checkb "node_only surfaced" true
    (Json.bool_opt (field "node_only" r) = Some true);
  (* a clean query still gets the cost analyzer's certified round
     bound as an info diagnostic — and nothing else *)
  checkb "only the certified-bound info on clean query" true
    (match field "diagnostics" r with
    | Json.List [ d ] ->
      Json.str_opt (Json.member "code" d) = Some "FQ053"
      && Json.str_opt (Json.member "severity" d) = Some "info"
    | _ -> false);
  (* a blamed query: FQ030 located, blocking operator surfaced *)
  let r =
    check_op
      ("with $x seeded by doc(\"curriculum.xml\")/curriculum/course \
        recurse ($x/prereq except $x/course)")
  in
  checkb "blamed check ok" true (ok r);
  let codes =
    match field "diagnostics" r with
    | Json.List ds ->
      List.map (fun d -> Option.get (Json.str_opt (Json.member "code" d))) ds
    | _ -> Alcotest.fail "diagnostics must be a list"
  in
  checkb "FQ030 present" true (List.mem "FQ030" codes);
  checkb "FQ031 present" true (List.mem "FQ031" codes);
  checkb "FQ032 present" true (List.mem "FQ032" codes);
  (match field "diagnostics" r with
  | Json.List (d :: _) ->
    checkb "diagnostics located" true
      (Option.get (Json.int_opt (Json.member "line" d)) >= 1)
  | _ -> Alcotest.fail "expected at least one diagnostic");
  checkb "blocking operator surfaced" true
    (Json.str_opt (field "blocking" r) <> None);
  (* rejected queries answer with located structured diagnostics *)
  let r = check_op "1 + count($nope)" in
  checkb "static error not ok" false (ok r);
  (match field "diagnostics" r with
  | Json.List [ d ] ->
    checks "code" "FQ010"
      (Option.get (Json.str_opt (Json.member "code" d)));
    checki "line" 1 (Option.get (Json.int_opt (Json.member "line" d)));
    checki "col" 11 (Option.get (Json.int_opt (Json.member "col" d)))
  | _ -> Alcotest.fail "expected exactly one diagnostic");
  let r = check_op "1 +" in
  checkb "parse error not ok" false (ok r);
  (match field "diagnostics" r with
  | Json.List [ d ] ->
    checks "parse code" "FQ001"
      (Option.get (Json.str_opt (Json.member "code" d)))
  | _ -> Alcotest.fail "expected exactly one parse diagnostic")

(* A cached prepared entry must not serve a stale cost estimate: after
   patch-doc grows the document, the same check (a prepared hit) has
   to report the re-analyzed round bound and costs. *)
let test_server_cost_refresh () =
  let server = mk_server () in
  ignore (send server load_doc_line);
  let check_q () =
    send server
      (Json.to_string
         (Json.Obj [ ("op", Json.Str "check"); ("query", Json.Str q1) ]))
  in
  let before = check_q () in
  let bound r = Option.get (Json.int_opt (field "rounds_bound" r)) in
  let patch =
    Json.to_string
      (Json.Obj
         [ ("op", Json.Str "patch-doc");
           ("uri", Json.Str "curriculum.xml");
           ("action", Json.Str "insert");
           ("path", Json.Str "/curriculum");
           ("position", Json.Str "into-last");
           ("xml",
            Json.Str "<course code=\"c9\"><prerequisites/></course>") ])
  in
  checkb "patch ok" true (ok (send server patch));
  let after = check_q () in
  checks "still a prepared hit" "hit" (sfield "prepared_cache" after);
  checki "bound tracks the grown document" (bound before + 1) (bound after)

let () =
  Alcotest.run "service"
    [ ("json",
       [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
         Alcotest.test_case "unicode" `Quick test_json_unicode;
         Alcotest.test_case "errors" `Quick test_json_errors;
         Alcotest.test_case "members" `Quick test_json_members ]);
      ("lru",
       [ Alcotest.test_case "eviction" `Quick test_lru_eviction;
         Alcotest.test_case "promotion" `Quick test_lru_promotion;
         Alcotest.test_case "counters" `Quick test_lru_counters ]);
      ("registry",
       [ Alcotest.test_case "generation" `Quick test_registry_generation ]);
      ("prepared",
       [ Alcotest.test_case "modes" `Quick test_prepared_modes;
         Alcotest.test_case "parity with check" `Quick
           test_prepared_parity_with_check;
         Alcotest.test_case "multi-ifp keeps auto" `Quick
           test_prepared_multi_ifp_keeps_auto;
         Alcotest.test_case "algebraic licence pins delta" `Quick
           test_prepared_pins_algebraic_licence;
         Alcotest.test_case "rejects" `Quick test_prepared_rejects ]);
      ("server",
       [ Alcotest.test_case "cache lifecycle" `Quick
           test_server_cache_lifecycle;
         Alcotest.test_case "engines agree" `Quick test_server_engines_agree;
         QCheck_alcotest.to_alcotest prop_default_mode_matches_naive;
         Alcotest.test_case "failures stay up" `Quick
           test_server_failures_stay_up;
         Alcotest.test_case "cache bypass" `Quick test_server_cache_bypass;
         Alcotest.test_case "shutdown and ids" `Quick
           test_server_shutdown_and_ids;
         Alcotest.test_case "unload and generated docs" `Quick
           test_server_unload_and_generated;
         Alcotest.test_case "divergence refusal" `Quick
           test_server_divergence_refusal;
         Alcotest.test_case "check diagnostics" `Quick
           test_server_check_diagnostics;
         Alcotest.test_case "cost refresh after patch" `Quick
           test_server_cost_refresh ]) ]
