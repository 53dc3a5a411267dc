(* Property tests for the static cost & cardinality analyzer: the
   certified round bound is never exceeded at runtime on any of the
   four workload families, and the patch-maintained synopsis keeps
   every per-path count exact under randomized patch-doc sequences. *)

module E = Fixq_cost.Estimate
module W = Fixq_workloads
module Store = Fixq_service.Store
module Prepared = Fixq_service.Prepared
module Synopsis = Fixq_xdm.Synopsis
module Node = Fixq_xdm.Node
module Patch = Fixq_xdm.Patch
module Doc_registry = Fixq_xdm.Doc_registry
module Diag = Fixq_analysis.Diag

let check = Alcotest.(check bool)

(* The estimate serve, the CLI and the bench all read: {!Prepared.cost}
   of a prepared entry, with the SQL rendered on demand as every reader
   of the per-engine rows does. *)
let estimate registry query =
  let store = Store.create ~registry () in
  Prepared.cost ~store
    (Prepared.with_sql
       (Prepared.prepare ~store ~stratified:false ~max_iterations:100_000
          query))

(* ------------------------------------------------------------------ *)
(* Rounds bound ≥ actual, across all four workload families at
   randomized sizes and seeds. *)

let load_family registry ~family ~seed ~size =
  match family with
  | 0 ->
    ignore
      (W.Curriculum.load ~registry
         { W.Curriculum.default with
           W.Curriculum.courses = 20 + (15 * size);
           seed });
    if seed mod 2 = 0 then W.Queries.q1 else W.Queries.curriculum_check
  | 1 ->
    ignore
      (W.Xmark.load ~registry
         { W.Xmark.default with
           W.Xmark.scale = 0.001 +. (0.0004 *. float_of_int size);
           seed });
    W.Queries.bidder_network
  | 2 ->
    ignore
      (W.Shakespeare.load ~registry
         { W.Shakespeare.default with
           W.Shakespeare.seed;
           acts = 1 + size;
           max_dialog = 4 + (3 * size) });
    W.Queries.dialogs
  | _ ->
    ignore
      (W.Hospital.load ~registry
         { W.Hospital.default with
           W.Hospital.total = 200 + (150 * size);
           seed });
    W.Queries.hospital

let prop_round_bounds =
  QCheck2.Test.make ~count:24
    ~name:"certified bound holds on every family"
    QCheck2.Gen.(triple (int_range 0 3) (int_range 0 9999) (int_range 0 4))
    (fun (family, seed, size) ->
      let registry = Doc_registry.create () in
      let query = load_family registry ~family ~seed ~size in
      let est = estimate registry query in
      let actual =
        (Fixq.run ~registry ~engine:(Fixq.Interpreter Fixq.Auto) query)
          .Fixq.depth
      in
      (match est.E.rounds_bound with
      | Some bound when bound < actual ->
        QCheck2.Test.fail_reportf
          "family %d: certified bound %d < actual %d rounds" family bound
          actual
      | _ -> ());
      true)

(* ------------------------------------------------------------------ *)
(* Synopsis maintenance: after a random sequence of patch-doc edits on
   a generated document of any family, the store's maintained synopsis
   must agree exactly (paths, attributes, texts, totals) with a fresh
   build of the patched tree. *)

let fragments =
  [| "<note>x</note>";
     "<extra><leaf/><leaf/></extra>";
     "<pre_code>c1</pre_code>";
     "<wing name=\"w\"><patient><name>p</name></patient></wing>" |]

(* Every element's patch path ("/a[1]/b[2]"), per-parent same-name
   indexed as {!Patch.resolve} expects. *)
let element_paths root =
  let acc = ref [] in
  let rec walk prefix node =
    let seen = Hashtbl.create 8 in
    List.iter
      (fun c ->
        if c.Node.kind = Node.Element then begin
          let nm = Node.name c in
          let k = (try Hashtbl.find seen nm with Not_found -> 0) + 1 in
          Hashtbl.replace seen nm k;
          let p = Printf.sprintf "%s/%s[%d]" prefix nm k in
          acc := p :: !acc;
          walk p c
        end)
      (Node.children node)
  in
  walk "" root;
  List.rev !acc

let kinds = [| ("curriculum", 10.); ("xmark", 0.001); ("play", 1.); ("hospital", 120.) |]

let prop_synopsis_exact =
  QCheck2.Test.make ~count:40
    ~name:"synopsis path counts stay exact under random patch sequences"
    QCheck2.Gen.(triple (int_range 0 3) (int_range 0 99999) (int_range 1 12))
    (fun (kind_ix, seed, nops) ->
      let store = Store.create () in
      let rng = Random.State.make [| seed; nops |] in
      let uri = "doc.xml" in
      let (kind, size) = kinds.(kind_ix) in
      Store.load_generated store ~uri ~kind ~size ~seed;
      (* force the lazy build so every edit takes the incremental
         maintenance path rather than a fresh walk at the end *)
      ignore (Store.synopsis store uri);
      for _ = 1 to nops do
        match Doc_registry.find ~registry:(Store.registry store) uri with
        | None -> ()
        | Some root ->
          let paths = element_paths root in
          if paths <> [] then begin
            let pick l = List.nth l (Random.State.int rng (List.length l)) in
            let path = pick paths in
            let top = List.length (String.split_on_char '/' path) <= 2 in
            let xml = fragments.(Random.State.int rng (Array.length fragments)) in
            let op =
              match Random.State.int rng (if top then 2 else 4) with
              | 0 ->
                Patch.Insert
                  { path;
                    position =
                      (if top then pick [ Patch.First; Patch.Last ]
                       else
                         pick
                           [ Patch.First; Patch.Last; Patch.Before;
                             Patch.After ]);
                    xml }
              | 1 ->
                Patch.Set_text
                  { path; text = "t" ^ string_of_int (Random.State.int rng 100) }
              | 2 -> Patch.Replace { path; xml }
              | _ -> Patch.Delete { path }
            in
            (* invalid edits (duplicate IDs, …) are rejected before any
               mutation; the synopsis must survive them unchanged *)
            try ignore (Store.patch store ~uri op) with _ -> ()
          end
      done;
      match
        ( Doc_registry.find ~registry:(Store.registry store) uri,
          Store.synopsis store uri )
      with
      | Some root, Some maintained ->
        if not (Synopsis.equal_counts maintained (Synopsis.build root)) then
          QCheck2.Test.fail_reportf
            "%s: maintained synopsis diverged after %d ops" kind nops;
        true
      | _ ->
        QCheck2.Test.fail_reportf "%s: document or synopsis vanished" kind)

(* ------------------------------------------------------------------ *)
(* Deterministic spot checks on the diagnostics and the report. *)

let registry = Doc_registry.create ()

let () =
  ignore
    (W.Curriculum.load ~registry
       { W.Curriculum.default with W.Curriculum.courses = 12 })

let has_code code (est : E.t) =
  List.exists (fun d -> d.Diag.code = code) est.E.diagnostics

let test_certified_bound_diag () =
  let est = estimate registry W.Queries.q1 in
  check "FQ053 on a node-only IFP" true (has_code "FQ053" est);
  check "a bound is derived" true (est.E.rounds_bound <> None);
  check "one estimate row per engine" true
    (List.map (fun e -> e.E.eng_name) est.E.engines
    = [ "interp"; "algebra"; "sql" ])

let test_empty_step_diag () =
  let est =
    estimate registry
      "with $x seeded by doc(\"curriculum.xml\")/curriculum/course \
       recurse $x/no_such_child/course"
  in
  check "FQ050 on a statically empty step" true (has_code "FQ050" est)

let test_empty_seed_diag () =
  let est =
    estimate registry
      "with $x seeded by doc(\"curriculum.xml\")/nowhere recurse $x/course"
  in
  check "FQ052 on a statically empty seed" true (has_code "FQ052" est)

let test_uncertified_diag () =
  let est = estimate registry "with $x seeded by 1 recurse $x + 1" in
  check "FQ054 when no bound is derivable" true (has_code "FQ054" est);
  check "no bound" true (est.E.rounds_bound = None)

let test_explain_text () =
  let est = estimate registry W.Queries.q1 in
  let text = E.to_text est in
  let lines = String.split_on_char '\n' text in
  let row name =
    List.exists
      (fun l -> String.starts_with ~prefix:(Printf.sprintf "  %-8s " name) l)
      lines
  in
  check "explain text has a row per engine" true
    (List.for_all row [ "interp"; "algebra"; "sql" ]);
  check "no engine is starred" false
    (List.exists (String.starts_with ~prefix:"*") lines);
  check "no chosen line" false
    (List.exists (String.starts_with ~prefix:"  chosen:") lines)

let () =
  Alcotest.run "cost"
    [ ("diagnostics",
       [ Alcotest.test_case "certified bound" `Quick test_certified_bound_diag;
         Alcotest.test_case "empty step" `Quick test_empty_step_diag;
         Alcotest.test_case "empty seed" `Quick test_empty_seed_diag;
         Alcotest.test_case "uncertifiable" `Quick test_uncertified_diag;
         Alcotest.test_case "explain text" `Quick test_explain_text ]);
      ("properties",
       [ QCheck_alcotest.to_alcotest prop_round_bounds;
         QCheck_alcotest.to_alcotest prop_synopsis_exact ]) ]
