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

(* The per-character escaper [Json.escape_to] replaced, as the
   reference for the run-blitting one. *)
let reference_json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* Byte strings built from quotes, backslashes, every control byte,
   DEL, plain ASCII runs and multi-byte UTF-8. *)
let gen_escape_text =
  let open QCheck2.Gen in
  let piece =
    frequency
      [ (3, string_size ~gen:(char_range 'a' 'z') (int_bound 12));
        (2, oneofl [ "\""; "\\"; "\127"; "\195\169"; "\228\184\173";
                     "\240\159\152\128" ]);
        (2, map (fun c -> String.make 1 (Char.chr c)) (int_bound 31)) ]
  in
  map (String.concat "") (list_size (int_bound 40) piece)

let prop_json_escape_matches_reference =
  QCheck2.Test.make ~count:500 ~name:"Json string escape = per-character"
    ~print:(Printf.sprintf "%S") gen_escape_text
    (fun s -> Json.to_string (Json.Str s) = reference_json_string s)

(* Item sequences of elements, attributes, text, comments, PIs and
   atoms whose strings hold quotes, backslashes, every control byte,
   DEL, multi-byte UTF-8 and markup characters. About half the strings
   are clean (nothing to escape), so one document mixes nodes the
   writer copies whole with nodes it scans; one name needs escaping. *)
let gen_wire_seq =
  let open QCheck2.Gen in
  let module Node = Fixq_xdm.Node in
  let module Item = Fixq_xdm.Item in
  let module Atom = Fixq_xdm.Atom in
  let txt =
    let piece =
      frequency
        [ (3, string_size ~gen:(char_range 'a' 'z') (int_bound 6));
          (3, oneofl [ "\""; "\\"; "\127"; "\195\169"; "\228\184\173";
                       "\240\159\152\128"; "<"; ">"; "&" ]);
          (2, map (fun c -> String.make 1 (Char.chr c)) (int_bound 31)) ]
    in
    let clean_piece =
      frequency
        [ (3, string_size ~gen:(char_range 'a' 'z') (int_bound 6));
          (1, oneofl [ " "; "'"; "\127"; "\195\169"; "\240\159\152\128" ]) ]
    in
    frequency
      [ (1, map (String.concat "") (list_size (int_bound 8) piece));
        (1, map (String.concat "") (list_size (int_bound 8) clean_piece)) ]
  in
  let name = oneofl [ "a"; "b"; "x:y"; "item"; "q\"n" ] in
  let spec =
    fix
      (fun self depth ->
        let leaf =
          oneof
            [ map (fun s -> Node.T s) txt; map (fun s -> Node.C s) txt;
              map2 (fun t s -> Node.P (t, s)) name txt ]
        in
        if depth = 0 then leaf
        else
          frequency
            [ (1, leaf);
              (2,
               map3
                 (fun n attrs kids -> Node.E (n, attrs, kids))
                 name
                 (list_size (int_bound 3) (pair name txt))
                 (list_size (int_bound 4) (self (depth - 1)))) ])
      3
  in
  let item =
    frequency
      [ (4, map (fun sp -> Item.N (Node.of_spec sp)) spec);
        (2, map2 (fun n v -> Item.N (Node.attribute n v)) name txt);
        (2, map (fun s -> Item.A (Atom.Str s)) txt);
        (1, map (fun i -> Item.A (Atom.Int i)) small_signed_int);
        (1, map (fun f -> Item.A (Atom.Dbl f)) float);
        (1, map (fun b -> Item.A (Atom.Bool b)) bool) ]
  in
  list_size (int_bound 5) item

(* The JSON-mode serializer writes what escaping the plain XML would. *)
let prop_fused_writer_matches_escape =
  QCheck2.Test.make ~count:500
    ~name:"seq_to_json = Json.Str (seq_to_string)"
    ~print:(fun r -> Printf.sprintf "%S" (Fixq_xdm.Serializer.seq_to_string r))
    gen_wire_seq
    (fun r ->
      Fixq_xdm.Serializer.seq_to_json r
      = Json.to_string (Json.Str (Fixq_xdm.Serializer.seq_to_string r)))

(* [json_into] writes what [seq_to_json] returns, into one buffer
   reused across the cases, as a connection's is across requests. *)
let prop_json_into_matches =
  let buf = Buffer.create 16 in
  QCheck2.Test.make ~count:500 ~name:"json_into a reused buffer = seq_to_json"
    ~print:(fun r -> Printf.sprintf "%S" (Fixq_xdm.Serializer.seq_to_string r))
    gen_wire_seq
    (fun r ->
      Fixq_xdm.Serializer.json_into buf r;
      Buffer.contents buf = Fixq_xdm.Serializer.seq_to_json r)

(* A long result and then a short one through one buffer: the short
   one leaves none of the long one's bytes behind. *)
let test_json_into_long_then_short () =
  let module Node = Fixq_xdm.Node in
  let module Item = Fixq_xdm.Item in
  let long = [ Item.N (Node.text (String.make 100_000 'x')) ] in
  let short = [ Item.N (Node.element "a" ~attrs:[ ("k", "\"") ] []) ] in
  let buf = Buffer.create 16 in
  Fixq_xdm.Serializer.json_into buf long;
  checki "long" 100_002 (Buffer.length buf);
  Fixq_xdm.Serializer.json_into buf short;
  checks "short" {|"<a k=\"&quot;\"/>"|} (Buffer.contents buf);
  checks "= seq_to_json" (Fixq_xdm.Serializer.seq_to_json short) (Buffer.contents buf)

(* Encoding fixpoint-cold's 38.5 KB hospital result into a warm buffer
   allocates nothing in the major heap: no large block, and (after a
   minor collection) too little in the minor heap to promote anything. *)
let test_warm_encode_no_major_words () =
  let module W = Fixq_workloads in
  let registry = Fixq_xdm.Doc_registry.create () in
  Fixq_xdm.Doc_registry.register ~registry "hospital.xml"
    (W.Hospital.generate { W.Hospital.default with W.Hospital.total = 2500; seed = 11 });
  let result =
    (Fixq.run ~registry ~engine:(Fixq.Interpreter Fixq.Auto) W.Queries.hospital)
      .Fixq.result
  in
  let buf = Buffer.create 16 in
  Fixq_xdm.Serializer.json_into buf result;
  checki "hospital result bytes" 38_502 (Buffer.length buf);
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  for _ = 1 to 10 do
    Fixq_xdm.Serializer.json_into buf result
  done;
  let words = (Gc.quick_stat ()).Gc.major_words -. before in
  check Alcotest.(float 0.) "major words for ten warm encodes" 0. words

(* Values that take every printing path: strings that need escaping,
   raw pieces, and worker lines with a member spliced in, braced or
   not. *)
let gen_wire_json =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [ return Json.Null; map (fun b -> Json.Bool b) bool;
        map Json.of_int small_signed_int; map (fun s -> Json.Str s) gen_escape_text ]
  in
  fix
    (fun self depth ->
      if depth = 0 then leaf
      else
        let sub = self (depth - 1) in
        let fields = list_size (int_bound 3) (pair gen_escape_text sub) in
        let line =
          oneof
            [ oneofl [ "{}"; {|{"a":1}|}; ""; "[1,2]"; "42"; "{"; "}"; {|"{}"|} ];
              map (fun f -> Json.to_string (Json.Obj f)) fields ]
        in
        frequency
          [ (2, leaf);
            (1, map (fun j -> Json.Raw (Json.to_string j)) sub);
            (2, map3 (fun l k v -> Json.Spliced (l, k, v)) line gen_escape_text sub);
            (1, map (fun l -> Json.List l) (list_size (int_bound 4) sub));
            (1, map (fun f -> Json.Obj f) fields) ])
    3

(* The bytes [Json.output] writes into a channel. *)
let output_bytes =
  let path = Filename.temp_file "fixq-json" ".out" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  fun j ->
    Out_channel.with_open_bin path (fun oc -> Json.output oc j);
    In_channel.with_open_bin path In_channel.input_all

let prop_output_matches_to_string =
  QCheck2.Test.make ~count:500 ~name:"Json.output = Json.to_string"
    ~print:Json.to_string gen_wire_json
    (fun j -> output_bytes j = Json.to_string j)

(* Pieces longer than a channel's buffer go out whole. *)
let test_json_output_large_pieces () =
  let big = Json.to_string (Json.Str (String.make 100_000 '"')) in
  let j =
    Json.Obj
      [ ("result", Json.Raw big);
        ("line",
         Json.Spliced (Json.to_string (Json.Obj [ ("r", Json.Raw big) ]),
                       "worker", Json.Str "w0")) ]
  in
  checks "same bytes" (Json.to_string j) (output_bytes j)

let test_json_escape_every_control_byte () =
  let all = String.init 128 Char.chr in
  checks "bytes 0-127" (reference_json_string all)
    (Json.to_string (Json.Str all));
  checks "clean text unchanged" "\"caf\195\169 au lait\""
    (Json.to_string (Json.Str "caf\195\169 au lait"))

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

let test_lru_sweep () =
  let c = Lru.create ~capacity:4 () in
  List.iter (fun (k, v) -> Lru.put c k v) [ ("a", 1); ("b", 2); ("c", 3) ];
  Lru.sweep c (fun k v ->
      match k with "a" -> Lru.Set (v * 10) | "b" -> Lru.Remove | _ -> Lru.Keep);
  checki "no traffic counted" 0 (Lru.hits c + Lru.misses c);
  check Alcotest.(list string) "b removed, order kept" [ "c"; "a" ] (Lru.keys c);
  checkb "a swapped" true (Lru.find c "a" = Some 10);
  checkb "c kept" true (Lru.find c "c" = Some 3);
  checkb "b gone" true (Lru.find c "b" = None)

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
       (Prepared.diagnostics ~cost:(Prepared.cost ~store p) p)
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
            checkb (label "prepare leaves sql unrendered") true
              (p.Prepared.sql = None);
            checkb (label "sql rendered on demand from the capture") true
              ((Prepared.with_sql p).Prepared.sql
              = Fixq.sql_of_first_ifp ~registry program))
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

(* Same query twice: the second is a result hit answered before
   preparing, so it never consults the prepared cache; a load-doc
   between runs invalidates the result cache but not the prepared
   query; the stats op reports the counters. *)
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
  checkb "r2 answered before preparing" true
    (field "prepared_cache" r2 = Json.Null);
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
  checki "prepared hits" 1 (cache "prepared" "hits");
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

(* Seed slicing was removed: a run still asking for a slice is refused
   with an error naming the field, never answered with the whole
   result. *)
let test_server_refuses_partition () =
  let server = mk_server () in
  ignore (send server load_doc_line);
  let r =
    send server
      (Json.to_string
         (Json.Obj
            [ ("op", Json.Str "run"); ("id", Json.of_int 7);
              ("query", Json.Str q1);
              ("partition",
               Json.Obj [ ("index", Json.of_int 0); ("of", Json.of_int 2) ]) ]))
  in
  checkb "refused" false (ok r);
  checki "id echoed" 7 (Option.get (Json.int_opt (field "id" r)));
  let e = sfield "error" r in
  checkb ("names the field: " ^ e) true
    (List.exists (fun w -> w = "\"partition\":") (String.split_on_char ' ' e));
  checkb "no result" true (field "result" r = Json.Null);
  checkb "the whole run still answers" true (ok (send server run_line))

(* Engine choice was removed: "auto" is an unknown engine, and the
   refusal lists the three that remain. *)
let test_server_refuses_auto_engine () =
  let server = mk_server () in
  ignore (send server load_doc_line);
  let r =
    send server
      (Json.to_string
         (Json.Obj
            [ ("op", Json.Str "run"); ("query", Json.Str q1);
              ("engine", Json.Str "auto") ]))
  in
  checkb "refused" false (ok r);
  let e = sfield "error" r in
  checkb ("names the engines: " ^ e) true
    (String.ends_with ~suffix:"(interp|algebra|sql)" e);
  checkb "no result" true (field "result" r = Json.Null)

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

(* ------------------------------------------------------------------ *)
(* Result lookup ahead of preparing                                    *)
(* ------------------------------------------------------------------ *)

module Governor = Service.Governor

let run_req ?engine ?mode ?stratified ?max_iterations ?timeout_ms
    ?(cache = true) query =
  let opt name f = function Some v -> [ (name, f v) ] | None -> [] in
  Json.to_string
    (Json.Obj
       ([ ("op", Json.Str "run"); ("query", Json.Str query) ]
       @ opt "engine" (fun e -> Json.Str e) engine
       @ opt "mode" (fun m -> Json.Str m) mode
       @ opt "stratified" (fun b -> Json.Bool b) stratified
       @ opt "max_iterations" Json.of_int max_iterations
       @ opt "timeout_ms" (fun ms -> Json.Num ms) timeout_ms
       @ if cache then [] else [ ("cache", Json.Bool false) ]))

let load_xml_line uri xml =
  Json.to_string
    (Json.Obj
       [ ("op", Json.Str "load-doc"); ("uri", Json.Str uri);
         ("xml", Json.Str xml) ])

(* A prerequisite chain c1 → c2 → … → cn: the closure from c1 needs one
   round per course. *)
let chain_xml n =
  let course i =
    Printf.sprintf
      {|<course code="c%d"><prerequisites>%s</prerequisites></course>|} i
      (if i < n then Printf.sprintf "<pre_code>c%d</pre_code>" (i + 1)
       else "")
  in
  {|<!DOCTYPE curriculum [ <!ATTLIST course code ID #REQUIRED> ]><curriculum>|}
  ^ String.concat "" (List.init n (fun i -> course (i + 1)))
  ^ "</curriculum>"

(* What a run answered: its result, or its error code and message. *)
let outcome r =
  if ok r then Ok (sfield "result" r)
  else Error (Json.str_opt (field "code" r), sfield "error" r)

let int_field name r = Option.get (Json.int_opt (field name r))

(* A cached answer serves only requests whose iteration cap a fresh run
   would survive: on both sides of the boundary the cached request
   answers exactly what a cache:false run does. *)
let test_server_budget_boundary () =
  let server = mk_server () in
  checkb "load" true
    (ok (send server (load_xml_line "curriculum.xml" (chain_xml 9))));
  let warm = send server (run_req q1) in
  checkb "warm ok" true (ok warm);
  let depth = int_field "depth" warm in
  checkb "a deep closure" true (depth >= 5);
  List.iter
    (fun m ->
      let cached = send server (run_req ~max_iterations:m q1) in
      let fresh = send server (run_req ~max_iterations:m ~cache:false q1) in
      checkb
        (Printf.sprintf "max_iterations %d: cached = cache:false" m)
        true
        (outcome cached = outcome fresh))
    [ 1; depth - 2; depth - 1; depth; depth + 1 ];
  checkb "a cap below the rounds fails like a fresh run" false
    (ok (send server (run_req ~max_iterations:1 q1)));
  checks "a cap at the rounds is answered from the cache" "hit"
    (sfield "result_cache" (send server (run_req ~max_iterations:depth q1)))

(* May-diverge by the analyzer (a constructor in the body), yet it
   terminates at run time: a budgeted run succeeds and is cached. *)
let constructing_q =
  {|with $x seeded by doc("curriculum.xml")/curriculum/course[@code="c1"]
    recurse (if (false()) then <b/> else $x/id(./prerequisites/pre_code))|}

(* A cached entry never lets a request past admission that a fresh run
   would be refused at, and a budgeted hit still reports the
   down-budgeting its admission applies. *)
let test_server_cache_keeps_admission () =
  let server = mk_server () in
  ignore (send server load_doc_line);
  let refused code q =
    checkb (code ^ ": budgeted run ok") true
      (ok (send server (run_req ~max_iterations:50 q)));
    checks (code ^ ": budgeted repeat hits") "hit"
      (sfield "result_cache" (send server (run_req ~max_iterations:50 q)));
    let r = send server (run_req q) in
    checkb (code ^ ": unbudgeted refused") false (ok r);
    checks (code ^ ": code") code (sfield "code" r)
  in
  refused "FQ040" constructing_q;
  refused "FQ043" (q1 ^ " accumulate by count");
  let server =
    Server.create
      ~config:
        { Server.default_config with
          governor = { Governor.default_config with max_cost = Some 50. } }
      ()
  in
  ignore (send server load_doc_line);
  let first = send server (run_req ~max_iterations:50 q1) in
  checkb "over the envelope, budgeted: down-budgeted" true
    (field "down_budgeted" first <> Json.Null);
  let again = send server (run_req ~max_iterations:50 q1) in
  checks "budgeted repeat hits" "hit" (sfield "result_cache" again);
  checkb "the hit is down-budgeted alike" true
    (field "down_budgeted" again = field "down_budgeted" first);
  checkb "and carries the estimate" true
    (field "estimated_cost" again = field "estimated_cost" first);
  let r = send server (run_req q1) in
  checkb "unbudgeted hit refused" false (ok r);
  checks "with FQ055" "FQ055" (sfield "code" r)

(* Admission reads the requested engine's estimate row. The sql row
   needs the SQL rendering, which preparing skips: an unrendered row
   would read work + 5 and admit q1 (interp 74, algebra 144, sql 252)
   under an envelope of 200. *)
let test_server_sql_admission_reads_rendered_row () =
  let server =
    Server.create
      ~config:
        { Server.default_config with
          governor = { Governor.default_config with max_cost = Some 200. } }
      ()
  in
  ignore (send server load_doc_line);
  checkb "interp answers" true (ok (send server (run_req ~engine:"interp" q1)));
  checkb "algebra answers" true
    (ok (send server (run_req ~engine:"algebra" q1)));
  let r = send server (run_req ~engine:"sql" q1) in
  checkb "sql refused" false (ok r);
  checks "with FQ055" "FQ055" (sfield "code" r);
  checki "at the rendered estimate" 252
    (Option.get (Json.int_opt (field "estimated_cost" r)))

(* Admission estimates against the documents as they are at run time,
   not as they were when the query was prepared: with the envelope just
   above q1's cost, a patch that grows the document makes the next
   unbudgeted run of the same prepared entry answer FQ055. *)
let test_server_admission_after_patch () =
  let probe = mk_server () in
  ignore (send probe load_doc_line);
  let interp_cost server =
    let r =
      send server
        (Json.to_string
           (Json.Obj [ ("op", Json.Str "check"); ("query", Json.Str q1) ]))
    in
    Option.get (Json.int_opt (Json.member "interp" (field "estimated_cost" r)))
  in
  let envelope = float_of_int (interp_cost probe) +. 1. in
  let server =
    Server.create
      ~config:
        { Server.default_config with
          governor = { Governor.default_config with max_cost = Some envelope } }
      ()
  in
  ignore (send server load_doc_line);
  let first = send server (run_req ~cache:false q1) in
  checkb "under the envelope: answered" true (ok first);
  let courses =
    String.concat ""
      (List.init 8 (fun i ->
           Printf.sprintf
             {|<course code="g%d"><prerequisites><pre_code>c1</pre_code></prerequisites></course>|}
             i))
  in
  checkb "patch ok" true
    (ok
       (send server
          (Json.to_string
             (Json.Obj
                [ ("op", Json.Str "patch-doc");
                  ("uri", Json.Str "curriculum.xml");
                  ("action", Json.Str "insert");
                  ("path", Json.Str "/curriculum");
                  ("position", Json.Str "into-last");
                  ("xml", Json.Str ("<batch>" ^ courses ^ "</batch>")) ]))));
  checkb "the grown document costs more" true
    (float_of_int (interp_cost server) > envelope);
  let r = send server (run_req ~cache:false q1) in
  checkb "grown: refused" false (ok r);
  checks "with FQ055" "FQ055" (sfield "code" r)

(* A serving run prepares without rendering SQL, so it never runs the
   algebra optimizer that the rendering starts with. *)
let test_server_run_skips_optimizer () =
  ignore
    (Fixq_algebra.Optimize.optimize (Fixq_algebra.Plan.Lit_table ([ "x" ], [])));
  checki "probe reset" 0 (Fixq_algebra.Optimize.last_rewrite_count ());
  let server = mk_server () in
  checkb "load auction" true
    (ok
       (send server
          {|{"op":"load-doc","uri":"auction.xml","generate":"xmark","size":0.001}|}));
  let r =
    send server
      (run_req ~cache:false
         (Fixq_workloads.Queries.bidder_network_single "person0"))
  in
  checkb "run ok" true (ok r);
  checks "prepared miss" "miss" (sfield "prepared_cache" r);
  checki "optimizer never ran" 0 (Fixq_algebra.Optimize.last_rewrite_count ())

(* Algebra runs memoize axis steps per context node. Every patch
   renumbers the document, so the memo of the old numbering must go
   with it: over insert/delete cycles the entry count stays flat. *)
let test_server_step_memo_bounded () =
  let server = mk_server () in
  let xml =
    "<r>" ^ String.concat "" (List.init 20 (fun _ -> "<a><b/><b/></a>")) ^ "</r>"
  in
  checkb "load" true (ok (send server (load_xml_line "steps.xml" xml)));
  let run () =
    let r =
      send server
        (run_req ~engine:"algebra" ~cache:false
           {|count(with $x seeded by doc("steps.xml")/r recurse $x/*)|})
    in
    checks "closure" "60" (sfield "result" r)
  in
  let patch action path extra =
    let r =
      send server
        (Json.to_string
           (Json.Obj
              ([ ("op", Json.Str "patch-doc"); ("uri", Json.Str "steps.xml");
                 ("action", Json.Str action); ("path", Json.Str path) ]
              @ extra)))
    in
    checkb action true (ok r)
  in
  let cycle () =
    run ();
    patch "insert" "/r" [ ("xml", Json.Str "<a><b/></a>") ];
    patch "delete" "/r/a[21]" []
  in
  cycle ();
  let first = Fixq_store.Encoding.cached_step_entries () in
  for _ = 1 to 40 do cycle () done;
  let last = Fixq_store.Encoding.cached_step_entries () in
  checkb
    (Printf.sprintf "entries stay flat (%d after one cycle, %d after 41)" first last)
    true (last <= first)

let tree_xmls =
  [| "<r><a><b/><b/></a><a><b/></a></r>"; "<r><a/><a><b><c/></b></a></r>" |]

let parity_queries =
  [| q1; "count(" ^ q1 ^ ")"; constructing_q; q1 ^ " accumulate by count";
     {|with $x seeded by doc("t.xml")/r recurse $x/*|};
     {|with $x seeded by doc("t.xml")/r recurse $x/*[1]|}; "1 + 1" |]

let patch_lines =
  [| {|{"op":"patch-doc","uri":"t.xml","action":"insert","path":"/r","xml":"<c/>"}|};
     {|{"op":"patch-doc","uri":"t.xml","action":"insert","path":"/r/a[1]","xml":"<b><b><b/></b></b>"}|};
     {|{"op":"patch-doc","uri":"t.xml","action":"delete","path":"/r/a[1]"}|};
     {|{"op":"patch-doc","uri":"curriculum.xml","action":"insert","path":"/curriculum","xml":"<course code=\"c9\"><prerequisites/></course>"}|} |]

(* What a run request varies by: its result-cache key. *)
type parity_request = {
  query : int;
  engine : string option;
  mode : string option;
  stratified : bool option;
}

type parity_step =
  | Run_step of {
      request : int;  (** index into the case's requests *)
      max_iterations : int option;
      timeout_ms : float option;
    }
  | Load_step of int
  | Patch_step of int

let gen_parity_request =
  let open QCheck2.Gen in
  let opt g = oneof [ pure None; map Option.some g ] in
  map
    (fun (query, engine, (mode, stratified)) ->
      { query; engine; mode; stratified })
    (triple
       (int_bound (Array.length parity_queries - 1))
       (opt (oneofl [ "interp"; "algebra"; "sql" ]))
       (pair (opt (oneofl [ "auto"; "naive"; "delta" ])) (opt bool)))

(* A few requests per case, each sent many times under varied budgets,
   so runs hit, miss, and meet entries that edits made stale. *)
let gen_parity_case =
  let open QCheck2.Gen in
  let step n_requests =
    frequency
      [ ( 8,
          map
            (fun (request, budget) ->
              let max_iterations, timeout_ms =
                match budget with
                | `None -> (None, None)
                | `Iter n -> (Some n, None)
                | `Time -> (None, Some 60_000.)
              in
              Run_step { request; max_iterations; timeout_ms })
            (pair (int_bound (n_requests - 1))
               (oneofl
                  [ `None; `Iter 1; `Iter 2; `Iter 3; `Iter 4; `Iter 5;
                    `Iter 50; `Time ])) );
        ( 1,
          map (fun i -> Load_step i) (int_bound (Array.length tree_xmls - 1))
        );
        ( 2,
          map (fun i -> Patch_step i) (int_bound (Array.length patch_lines - 1))
        ) ]
  in
  int_range 1 3 >>= fun n ->
  pair
    (array_size (pure n) gen_parity_request)
    (list_size (int_range 4 24) (step n))

let parity_line requests ~cache = function
  | Run_step { request; max_iterations; timeout_ms } ->
    let r = requests.(request) in
    run_req ?engine:r.engine ?mode:r.mode ?stratified:r.stratified
      ?max_iterations ?timeout_ms ~cache parity_queries.(r.query)
  | Load_step i -> load_xml_line "t.xml" tree_xmls.(i)
  | Patch_step i -> patch_lines.(i)

let print_parity_case (requests, steps) =
  String.concat "\n" (List.map (parity_line requests ~cache:true) steps)

(* Random request sequences over tiny caches: every run answers what the
   same request with cache:false answers — result, resolved mode,
   used_delta and the round statistics — or fails with the same error,
   and looks its result up exactly once. A hit on an entry that
   patch-doc maintained keeps the adopting run's nodes_fed and depth
   and says so with a "maintenance" field, so those two are compared on
   every answer without one. *)
let prop_cached_run_matches_uncached =
  QCheck2.Test.make ~count:100 ~name:"cached run = cache:false run"
    ~print:print_parity_case gen_parity_case
    (fun (requests, steps) ->
      let server =
        Server.create
          ~config:
            { Server.default_config with
              prepared_capacity = 1; result_capacity = 2 }
          ()
      in
      ignore (send server load_doc_line);
      ignore (send server (load_xml_line "t.xml" tree_xmls.(0)));
      let lookups () =
        let results =
          field "results" (field "stats" (send server {|{"op":"stats"}|}))
        in
        int_field "hits" results + int_field "misses" results
      in
      List.iter
        (fun step ->
          match step with
          | Load_step _ | Patch_step _ ->
            ignore (send server (parity_line requests ~cache:true step))
          | Run_step _ ->
            let before = lookups () in
            let cached = send server (parity_line requests ~cache:true step) in
            let looked = lookups () - before in
            let fresh = send server (parity_line requests ~cache:false step) in
            let fail what =
              QCheck2.Test.fail_reportf "%s: %s\ncached %s\nfresh  %s" what
                (parity_line requests ~cache:true step)
                (Json.to_string cached) (Json.to_string fresh)
            in
            if looked <> 1 then
              fail (Printf.sprintf "%d result lookups" looked);
            if outcome cached <> outcome fresh then fail "outcome differs";
            if ok cached then begin
              let same names =
                List.iter
                  (fun name ->
                    if field name cached <> field name fresh then fail name)
                  names
              in
              same [ "mode"; "used_delta" ];
              if field "maintenance" cached = Json.Null then
                same [ "nodes_fed"; "depth" ]
            end)
        steps;
      true)

(* ------------------------------------------------------------------ *)
(* Front door: the socket transport                                    *)
(* ------------------------------------------------------------------ *)

let door_counter = ref 0

let fresh_socket () =
  incr door_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "fixq-door-%d-%d.sock" (Unix.getpid ()) !door_counter)

(* [Server.serve_socket_with] on a fresh socket in its own thread;
   [returned] flips once it has returned. *)
type door = { path : string; returned : bool Atomic.t; thread : Thread.t }

let start_door ~workers server =
  let path = fresh_socket () in
  let returned = Atomic.make false in
  let thread =
    Thread.create
      (fun () ->
        Server.serve_socket_with ~handle:(Server.respond server) ~workers
          ~path ();
        Atomic.set returned true)
      ()
  in
  let deadline = Unix.gettimeofday () +. 5. in
  while
    (not (Server.socket_alive path)) && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.01
  done;
  { path; returned; thread }

(* Every read gives up after 2 s, so a server that never answers fails
   the test instead of hanging it. *)
let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.;
  fd

(* Send one line and read one answer line; [None] when the server
   hangs up, refuses the write or stays silent past the timeout. *)
let request_line fd line =
  let out = Bytes.of_string (line ^ "\n") in
  match Unix.write fd out 0 (Bytes.length out) with
  | exception Unix.Unix_error _ -> None
  | _ ->
    let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
    let rec read () =
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | exception Unix.Unix_error _ -> None
      | 0 -> None
      | n -> (
        Buffer.add_subbytes buf chunk 0 n;
        let s = Buffer.contents buf in
        match String.index_opt s '\n' with
        | Some i -> Some (String.sub s 0 i)
        | None -> read ())
    in
    read ()

let request fd line = Option.map Json.parse (request_line fd line)

let answered_ok = function Some j -> ok j | None -> false
let hang_up fd = try Unix.close fd with Unix.Unix_error _ -> ()

let wait_returned door ~within =
  let deadline = Unix.gettimeofday () +. within in
  while
    (not (Atomic.get door.returned)) && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.01
  done;
  Atomic.get door.returned

(* Let a server that is still running go: hang up every client, then
   stop it from a fresh connection if it still answers. *)
let finish door clients =
  List.iter hang_up clients;
  if not (wait_returned door ~within:0.2) then begin
    (match connect door.path with
    | fd ->
      ignore (request fd {|{"op":"shutdown"}|});
      hang_up fd
    | exception Unix.Unix_error _ -> ());
    ignore (wait_returned door ~within:2.)
  end;
  if Atomic.get door.returned then Thread.join door.thread

(* One request slot, one idle connection: a second connection is still
   answered, because a connection holds the slot only while one of its
   requests runs. *)
let test_door_idle_connection_does_not_starve () =
  let door = start_door ~workers:1 (mk_server ()) in
  let a = connect door.path in
  let b = connect door.path in
  let answer = request b {|{"op":"ping"}|} in
  finish door [ a; b ];
  checkb "B's ping answered while A is open" true (answered_ok answer)

(* A shutdown answered on B ends the server while A stays open: the
   call returns and the socket path is gone. *)
let test_door_shutdown_returns_with_client_open () =
  let door = start_door ~workers:2 (mk_server ()) in
  let a = connect door.path in
  checkb "A served" true (answered_ok (request a {|{"op":"ping"}|}));
  let b = connect door.path in
  checkb "shutdown answered" true
    (answered_ok (request b {|{"op":"shutdown"}|}));
  let returned = wait_returned door ~within:2. in
  let path_gone = not (Sys.file_exists door.path) in
  finish door [ a; b ];
  checkb "returned within 2 s with A open" true returned;
  checkb "socket path removed" true path_gone

(* A cached 34 KB hospital closure read off a real socket is the line
   [handle_line] prints for the same hit. *)
let test_door_hit_bytes_match_handle_line () =
  let module W = Fixq_workloads in
  let server = mk_server () in
  let xml =
    Fixq_xdm.Serializer.to_string
      (W.Hospital.generate { W.Hospital.default with W.Hospital.total = 240; seed = 14 })
  in
  ignore
    (Server.handle_line server
       (Printf.sprintf {|{"op":"load-doc","uri":"hospital.xml","xml":%s}|}
          (Json.to_string (Json.Str xml))));
  let run =
    Json.to_string
      (Json.Obj
         [ ("op", Json.Str "run");
           ("query",
            Json.Str
              {|declare variable $doc := doc("hospital.xml");
with $x seeded by $doc/hospital/patient
recurse $x/parents/patient|}) ])
  in
  ignore (Server.handle_line server run);
  let expected = fst (Server.handle_line server run) in
  let door = start_door ~workers:1 server in
  let fd = connect door.path in
  let got = request_line fd run in
  finish door [ fd ];
  checkb "a hit over 32 KB" true
    (String.length expected > 32_000
    && Json.str_opt (Json.member "result_cache" (Json.parse expected)) = Some "hit");
  checks "socket bytes = handle_line bytes" expected (Option.value ~default:"" got)

(* [line] without its [,"wall_ms":…] member. *)
let untimed line =
  let key = {|,"wall_ms":|} in
  let n = String.length line and k = String.length key in
  let rec find i =
    if i + k > n then line
    else if String.sub line i k = key then
      let j = ref (i + k) in
      while !j < n && line.[!j] <> ',' && line.[!j] <> '}' do incr j done;
      String.sub line 0 i ^ String.sub line !j (n - !j)
    else find (i + 1)
  in
  find 0

(* Two connections to [Server.serve_socket] with two request slots
   interleave [cache:false] runs whose results differ and exceed 64 KB,
   then one asks for a short result: every response is the line
   [handle_line] prints for its query, so no connection sees another's
   result buffer or leftover bytes of its own. *)
let test_socket_connection_buffers () =
  let module W = Fixq_workloads in
  let server =
    Server.create ~config:{ Server.default_config with Server.workers = 2 } ()
  in
  let load uri seed =
    let xml =
      Fixq_xdm.Serializer.to_string
        (W.Hospital.generate { W.Hospital.default with W.Hospital.total = 600; seed })
    in
    ignore
      (Server.handle_line server
         (Printf.sprintf {|{"op":"load-doc","uri":"%s","xml":%s}|} uri
            (Json.to_string (Json.Str xml))))
  in
  load "a.xml" 14;
  load "b.xml" 15;
  let run ?(cache = false) query =
    Json.to_string
      (Json.Obj
         ([ ("op", Json.Str "run"); ("query", Json.Str query) ]
         @ if cache then [] else [ ("cache", Json.Bool false) ]))
  in
  let closure uri =
    run
      (Printf.sprintf
         {|with $x seeded by doc("%s")/hospital/patient recurse $x/parents/patient|}
         uri)
  in
  let short = run {|count(doc("a.xml")/hospital/patient)|} in
  let expect line =
    ignore (Server.handle_line server line);
    untimed (fst (Server.handle_line server line))
  in
  let la = closure "a.xml" and lb = closure "b.xml" in
  let ea = expect la and eb = expect lb and es = expect short in
  checkb "results over 64 KB" true
    (String.length ea > 65_536 && String.length eb > 65_536);
  checkb "results differ" true (ea <> eb);
  let path = fresh_socket () in
  let returned = Atomic.make false in
  let thread =
    Thread.create
      (fun () ->
        Server.serve_socket server ~path;
        Atomic.set returned true)
      ()
  in
  let deadline = Unix.gettimeofday () +. 5. in
  while (not (Server.socket_alive path)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  let door = { path; returned; thread } in
  let client line expected =
    let fd = connect path in
    let wrong = ref 0 in
    for _ = 1 to 8 do
      match request_line fd line with
      | Some got when untimed got = expected -> ()
      | _ -> incr wrong
    done;
    (match request_line fd short with
    | Some got when untimed got = es -> ()
    | _ -> incr wrong);
    (fd, !wrong)
  in
  let other = ref (Unix.stdin, 0) in
  let t = Thread.create (fun () -> other := client lb eb) () in
  let (fa, wrong_a) = client la ea in
  Thread.join t;
  let (fb, wrong_b) = !other in
  finish door [ fa; fb ];
  checki "responses on connection A unlike handle_line" 0 wrong_a;
  checki "responses on connection B unlike handle_line" 0 wrong_b

(* This test binary doubles as a bare socket server: re-executed with
   [--serve-door SOCKET] it answers every line with [{"ok":true}] until
   a shutdown. *)
let serve_door_flag = "--serve-door"

let () =
  match Sys.argv with
  | [| _; flag; socket |] when flag = serve_door_flag ->
    Server.serve_socket_with
      ~handle:(fun _ -> (Json.Obj [ ("ok", Json.Bool true) ], false))
      ~path:socket ();
    exit 0
  | _ -> ()

(* The socket path appears only once the server listens: a client in
   another process that connects the moment it sees the path is
   answered, every time. *)
let test_door_path_means_listening () =
  let refused = ref 0 in
  for _ = 1 to 100 do
    let path = fresh_socket () in
    let pid =
      Unix.create_process Sys.executable_name
        [| Sys.executable_name; serve_door_flag; path |]
        Unix.stdin Unix.stdout Unix.stderr
    in
    let deadline = Unix.gettimeofday () +. 5. in
    while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
      ()
    done;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.;
      if not (answered_ok (request fd {|{"op":"shutdown"}|})) then
        incr refused
    | exception Unix.Unix_error _ -> incr refused);
    hang_up fd;
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    if Sys.file_exists path then Sys.remove path
  done;
  checki "connects refused after the path appeared" 0 !refused

(* On a durable server no write is acknowledged after the shutdown
   answer, and a restart holds exactly the documents loaded before. *)
let test_door_no_write_after_shutdown () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fixq-door-state-%d" (Unix.getpid ()))
  in
  let remove_dir () =
    ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)))
  in
  remove_dir ();
  let config =
    { Server.default_config with workers = 2; state_dir = Some dir }
  in
  let door = start_door ~workers:2 (Server.create ~config ()) in
  let a = connect door.path in
  let b = connect door.path in
  checkb "first load acknowledged" true
    (answered_ok (request a (load_xml_line "before.xml" "<a/>")));
  checkb "shutdown answered" true
    (answered_ok (request b {|{"op":"shutdown"}|}));
  let late = request a (load_xml_line "after.xml" "<b/>") in
  finish door [ a; b ];
  let restarted = Server.create ~config () in
  let uris = List.sort compare (Service.Store.uris (Server.store restarted)) in
  ignore (Server.handle_line restarted {|{"op":"shutdown"}|});
  remove_dir ();
  checkb "load after the shutdown answer not acknowledged" false
    (answered_ok late);
  check Alcotest.(list string) "restart lists the earlier documents"
    [ "before.xml" ] uris

let () =
  Alcotest.run "service"
    [ ("json",
       [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
         Alcotest.test_case "unicode" `Quick test_json_unicode;
         Alcotest.test_case "errors" `Quick test_json_errors;
         Alcotest.test_case "every control byte escaped" `Quick
           test_json_escape_every_control_byte;
         QCheck_alcotest.to_alcotest prop_json_escape_matches_reference;
         QCheck_alcotest.to_alcotest prop_fused_writer_matches_escape;
         QCheck_alcotest.to_alcotest prop_json_into_matches;
         Alcotest.test_case "one buffer, long result then short" `Quick
           test_json_into_long_then_short;
         Alcotest.test_case "warm encode adds no major words" `Quick
           test_warm_encode_no_major_words;
         QCheck_alcotest.to_alcotest prop_output_matches_to_string;
         Alcotest.test_case "output of pieces past the channel buffer" `Quick
           test_json_output_large_pieces;
         Alcotest.test_case "members" `Quick test_json_members ]);
      ("lru",
       [ Alcotest.test_case "eviction" `Quick test_lru_eviction;
         Alcotest.test_case "promotion" `Quick test_lru_promotion;
         Alcotest.test_case "counters" `Quick test_lru_counters;
         Alcotest.test_case "sweep" `Quick test_lru_sweep ]);
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
         Alcotest.test_case "removed partition field refused" `Quick
           test_server_refuses_partition;
         Alcotest.test_case "removed auto engine refused" `Quick
           test_server_refuses_auto_engine;
         Alcotest.test_case "shutdown and ids" `Quick
           test_server_shutdown_and_ids;
         Alcotest.test_case "unload and generated docs" `Quick
           test_server_unload_and_generated;
         Alcotest.test_case "divergence refusal" `Quick
           test_server_divergence_refusal;
         Alcotest.test_case "check diagnostics" `Quick
           test_server_check_diagnostics;
         Alcotest.test_case "algebra step memo bounded under patches" `Quick
           test_server_step_memo_bounded;
         Alcotest.test_case "cost refresh after patch" `Quick
           test_server_cost_refresh ]);
      ( "result cache",
        [ Alcotest.test_case "budget boundary" `Quick
            test_server_budget_boundary;
          Alcotest.test_case "admission never bypassed" `Quick
            test_server_cache_keeps_admission;
          Alcotest.test_case "sql admission reads the rendered row" `Quick
            test_server_sql_admission_reads_rendered_row;
          Alcotest.test_case "admission after a growing patch" `Quick
            test_server_admission_after_patch;
          Alcotest.test_case "serving run skips the optimizer" `Quick
            test_server_run_skips_optimizer;
          QCheck_alcotest.to_alcotest prop_cached_run_matches_uncached ] );
      ( "front door",
        [ Alcotest.test_case "idle connection does not starve" `Quick
            test_door_idle_connection_does_not_starve;
          Alcotest.test_case "shutdown returns with a client open" `Quick
            test_door_shutdown_returns_with_client_open;
          Alcotest.test_case "no write after shutdown" `Quick
            test_door_no_write_after_shutdown;
          Alcotest.test_case "path appears once listening" `Quick
            test_door_path_means_listening;
          Alcotest.test_case "cached hit over a socket = handle_line" `Quick
            test_door_hit_bytes_match_handle_line;
          Alcotest.test_case "connection buffers over a socket = handle_line"
            `Quick test_socket_connection_buffers ] ) ]
