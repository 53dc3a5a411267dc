(* fixq — command-line front end.

   Subcommands:
     run       evaluate a query (file or --expr) against XML documents
     check     report both distributivity verdicts for a query's IFP
     plan      print the compiled algebra plan of a query's IFP
     generate  emit a benchmark document (xmark/curriculum/play/hospital)
     serve     long-lived query server (prepared-query + result caches)
     cluster   multi-process cluster: sharded workers behind a coordinator
     client    forward stdin request lines to a serve/cluster socket *)

module Xdm = Fixq_xdm
module Lang = Fixq_lang
module W = Fixq_workloads
module Prepared = Fixq_service.Prepared
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* --doc uri=path registrations *)
let load_docs registry docs =
  List.iter
    (fun spec ->
      let (uri, path) =
        match String.index_opt spec '=' with
        | Some i ->
          ( String.sub spec 0 i,
            String.sub spec (i + 1) (String.length spec - i - 1) )
        | None -> (spec, spec)
      in
      match Xdm.Xml_parser.parse_string ~uri (read_file path) with
      | doc -> Xdm.Doc_registry.register ~registry uri doc
      | exception Sys_error msg ->
        Printf.eprintf "error: --doc %s: %s\n" uri msg;
        exit 1
      | exception Xdm.Xml_parser.Parse_error { line; col; msg } ->
        Printf.eprintf "error: --doc %s: parse error at %d:%d: %s\n" uri line
          col msg;
        exit 1)
    docs

(* --patch "URI ACTION [PAYLOAD] at /PATH [POSITION]" applications.
   [fixq run] applies them locally after --doc registration; [fixq
   client] translates each into a patch-doc request line sent before
   the stdin loop. *)
let parse_patch_specs specs =
  List.map
    (fun spec ->
      match Fixq_service.Protocol.parse_patch_spec spec with
      | Ok parsed -> parsed
      | Error msg ->
        Printf.eprintf "error: --patch %S: %s\n" spec msg;
        exit 1)
    specs

let apply_patches registry specs =
  List.iter
    (fun (uri, op) ->
      match Xdm.Doc_registry.find ~registry uri with
      | None ->
        Printf.eprintf "error: --patch: no document loaded under %S\n" uri;
        exit 1
      | Some root -> (
        match Xdm.Patch.apply root op with
        | delta -> Xdm.Doc_registry.patched ~registry uri delta
        | exception Xdm.Patch.Patch_error msg ->
          Printf.eprintf "error: --patch %s: %s\n" uri msg;
          exit 1))
    (parse_patch_specs specs)

let patch_request_line uri op =
  let module Json = Fixq_service.Json in
  let module P = Xdm.Patch in
  let fields =
    match op with
    | P.Insert { path; position; xml } ->
      [ ("action", Json.Str "insert"); ("path", Json.Str path);
        ("position", Json.Str (P.string_of_position position));
        ("xml", Json.Str xml) ]
    | P.Delete { path } ->
      [ ("action", Json.Str "delete"); ("path", Json.Str path) ]
    | P.Replace { path; xml } ->
      [ ("action", Json.Str "replace"); ("path", Json.Str path);
        ("xml", Json.Str xml) ]
    | P.Set_text { path; text } ->
      [ ("action", Json.Str "set-text"); ("path", Json.Str path);
        ("text", Json.Str text) ]
  in
  Json.to_string
    (Json.Obj (("op", Json.Str "patch-doc") :: ("uri", Json.Str uri) :: fields))

let query_source file expr =
  match (file, expr) with
  | (_, Some e) -> e
  | (Some f, None) -> read_file f
  | (None, None) ->
    (* read the query from stdin *)
    let buf = Buffer.create 256 in
    (try
       while true do
         Buffer.add_channel buf stdin 1
       done
     with End_of_file -> ());
    Buffer.contents buf

(* shared args *)
let docs_arg =
  let doc = "Register an XML document: URI=PATH (or just PATH)." in
  Arg.(value & opt_all string [] & info [ "doc"; "d" ] ~docv:"URI=PATH" ~doc)

let patch_arg =
  let doc =
    "Apply a document edit (repeatable, applied in order): \"URI ACTION \
     [PAYLOAD] at /PATH [POSITION]\", e.g. 'auction.xml insert <x/> at \
     /site/people' or 'auction.xml delete at /site/regions[2]'. ACTION is \
     insert|delete|replace|set-text; POSITION is \
     into|into-first|into-last|before|after (default into-last)."
  in
  Arg.(value & opt_all string [] & info [ "patch" ] ~docv:"SPEC" ~doc)

let file_arg =
  let doc = "Query file; omit to read from stdin." in
  Arg.(value & pos 0 (some file) None & info [] ~docv:"QUERY.xq" ~doc)

let expr_arg =
  let doc = "Inline query text (overrides the file argument)." in
  Arg.(value & opt (some string) None & info [ "expr"; "e" ] ~docv:"QUERY" ~doc)

let engine_arg =
  let doc =
    "Engine: 'interp' (tree-walking), 'algebra' (relational), 'sql' \
     (WITH RECURSIVE over materialized document relations; \
     non-renderable IFP sites fall back to the interpreter)."
  in
  Arg.(value
       & opt
           (enum [ ("interp", `Interp); ("algebra", `Algebra); ("sql", `Sql) ])
           `Interp
       & info [ "engine" ] ~docv:"ENGINE" ~doc)

let mode_arg =
  let doc = "Fixpoint algorithm: naive, delta (forced), or auto." in
  Arg.(value
       & opt (enum [ ("naive", Fixq.Naive); ("delta", Fixq.Delta); ("auto", Fixq.Auto) ])
           Fixq.Auto
       & info [ "mode" ] ~docv:"MODE" ~doc)

let stats_arg =
  let doc = "Print fixpoint statistics (nodes fed, depth, time)." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let stratified_arg =
  let doc =
    "Enable the stratified-difference refinement: 'x except R' with \
     fixed R counts as distributive (the paper's Section 6)."
  in
  Arg.(value & flag & info [ "stratified" ] ~doc)

let to_engine engine mode =
  match engine with
  | `Interp -> Fixq.Interpreter mode
  | `Algebra -> Fixq.Algebra mode
  | `Sql -> Fixq.Sql mode

(* Every static fact about a query — both distributivity verdicts, the
   first site's plan and SQL rendering, the cost estimate and the
   merged diagnostics — comes from the prepare pipeline serve uses, so
   check, lint and explain report exactly what serve reports. Only
   parse errors raise [Prepared.Rejected]; a program with static
   errors is still analyzed, so its findings print in full. *)
let inspect ~stratified registry src =
  Prepared.inspect
    ~store:(Fixq_service.Store.create ~registry ())
    ~stratified
    ~max_iterations:Fixq_service.Server.default_config.max_iterations src

let cost registry p =
  Prepared.cost ~store:(Fixq_service.Store.create ~registry ()) p

(* ------------------------------------------------------------------ *)

let run_cmd =
  let action file expr docs patches engine mode stats stratified =
    let registry = Xdm.Doc_registry.create () in
    load_docs registry docs;
    apply_patches registry patches;
    let src = query_source file expr in
    match
      Fixq.run ~registry ~stratified ~engine:(to_engine engine mode) src
    with
    | report ->
      print_endline (Xdm.Serializer.seq_to_string report.Fixq.result);
      (match report.Fixq.semiring with
      | None -> ()
      | Some kind ->
        Printf.printf "-- accumulate by %s --\n" kind;
        List.iter
          (fun (x, a) -> Printf.printf "%s @ %s\n" x a)
          report.Fixq.annotations);
      if stats then begin
        Printf.eprintf "time: %.1f ms\n" report.Fixq.wall_ms;
        Printf.eprintf "delta used: %s\n"
          (match report.Fixq.used_delta with
          | None -> "no IFP"
          | Some b -> string_of_bool b);
        Printf.eprintf "nodes fed: %d, depth: %d\n" report.Fixq.nodes_fed
          report.Fixq.depth;
        List.iter (Printf.eprintf "fallback: %s\n") report.Fixq.fallbacks
      end;
      0
    | exception Fixq.Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  in
  let term =
    Term.(const action $ file_arg $ expr_arg $ docs_arg $ patch_arg
          $ engine_arg $ mode_arg $ stats_arg $ stratified_arg)
  in
  Cmd.v (Cmd.info "run" ~doc:"Evaluate a query.") term

let repl_cmd =
  let action docs engine mode stratified =
    let registry = Xdm.Doc_registry.create () in
    load_docs registry docs;
    print_endline
      "fixq repl — one query per line, blank line or EOF to quit";
    let rec loop () =
      print_string "fixq> ";
      match read_line () with
      | "" | exception End_of_file -> 0
      | line -> (
        (match
           Fixq.run ~registry ~stratified
             ~engine:(to_engine engine mode) line
         with
        | report ->
          print_endline (Xdm.Serializer.seq_to_string report.Fixq.result);
          (match report.Fixq.used_delta with
          | Some d -> Printf.printf "  [delta: %b, fed %d, depth %d]\n" d
                        report.Fixq.nodes_fed report.Fixq.depth
          | None -> ())
        | exception Fixq.Error msg -> Printf.printf "error: %s\n" msg);
        loop ())
    in
    loop ()
  in
  let term =
    Term.(const action $ docs_arg $ engine_arg $ mode_arg $ stratified_arg)
  in
  Cmd.v (Cmd.info "repl" ~doc:"Interactive query loop.") term

let check_cmd =
  let action file expr docs =
    let registry = Xdm.Doc_registry.create () in
    load_docs registry docs;
    let src = query_source file expr in
    match inspect ~stratified:false registry src with
    | exception Prepared.Rejected { message; _ } ->
      prerr_endline message;
      1
    | p ->
      List.iter print_endline p.Prepared.warnings;
      (* the analyzer's error-severity findings are exactly the static
         errors, which serve's prepare would reject *)
      if List.exists Fixq_analysis.Diag.is_error
           p.Prepared.analysis.Fixq_analysis.Analyze.diagnostics
      then 1
      else if p.Prepared.ifp_count = 0 then begin
        print_endline "the query contains no inflationary fixed point";
        0
      end
      else begin
        Printf.printf "syntactic check (Figure 5): %s\n"
          (if p.Prepared.syntactic then "distributive — Delta applies"
           else "not established");
        Printf.printf "algebraic check (∪ push-up): %s\n"
          (match p.Prepared.algebraic with
          | Some true -> "distributive — µ∆ applies"
          | Some false -> "not distributive"
          | None -> "body outside the compilable subset");
        Printf.printf "delta licensed by: %s\n"
          (match Prepared.delta_by p with
          | Some check -> check ^ " check"
          | None -> "neither check — Naïve");
        Printf.printf "SQL:1999 rendering: %s\n"
          (match p.Prepared.sql with
          | Some (Ok _) -> "renderable — WITH RECURSIVE applies"
          | Some (Error reason) -> "not renderable (" ^ reason ^ ")"
          | None -> "body outside the compilable subset");
        0
      end
  in
  let term = Term.(const action $ file_arg $ expr_arg $ docs_arg) in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Report both distributivity verdicts for the first IFP.")
    term

let lint_cmd =
  let module Json = Fixq_service.Json in
  let module Analyze = Fixq_analysis.Analyze in
  let module Diag = Fixq_analysis.Diag in
  let diag_json = Fixq_service.Protocol.diag_json in
  let format_arg =
    Arg.(value
         & opt
             (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ])
             `Text
         & info [ "format" ] ~docv:"FORMAT"
             ~doc:
               "Output format: 'text' (one line per finding), 'json', or \
                'sarif' (SARIF 2.1.0, for code-scanning upload).")
  in
  let fix_hints_arg =
    Arg.(value & flag
         & info [ "fix-hints" ]
             ~doc:
               "Apply the Section-3.2 distributivity hint to every \
                hint-repairable IFP, re-run both checkers on the result, \
                and print the rewritten query.")
  in
  let sarif_string ~artifact diagnostics =
    let level (d : Diag.t) =
      match Diag.severity_string d.Diag.severity with
      | "error" -> "error"
      | "warning" -> "warning"
      | _ -> "note"
    in
    let rules =
      List.sort_uniq compare
        (List.map (fun (d : Diag.t) -> d.Diag.code) diagnostics)
    in
    let result (d : Diag.t) =
      let (line, col) =
        match d.Diag.loc with Some lc -> lc | None -> (1, 1)
      in
      Json.Obj
        [ ("ruleId", Json.Str d.Diag.code);
          ("level", Json.Str (level d));
          ("message", Json.Obj [ ("text", Json.Str d.Diag.message) ]);
          ("locations",
           Json.List
             [ Json.Obj
                 [ ("physicalLocation",
                    Json.Obj
                      [ ("artifactLocation",
                         Json.Obj [ ("uri", Json.Str artifact) ]);
                        ("region",
                         Json.Obj
                           [ ("startLine", Json.of_int (max 1 line));
                             ("startColumn", Json.of_int (max 1 col)) ]) ])
                 ] ]) ]
    in
    Json.to_string
      (Json.Obj
         [ ("version", Json.Str "2.1.0");
           ("$schema",
            Json.Str "https://json.schemastore.org/sarif-2.1.0.json");
           ("runs",
            Json.List
              [ Json.Obj
                  [ ("tool",
                     Json.Obj
                       [ ("driver",
                          Json.Obj
                            [ ("name", Json.Str "fixq");
                              ("rules",
                               Json.List
                                 (List.map
                                    (fun c -> Json.Obj [ ("id", Json.Str c) ])
                                    rules)) ]) ]);
                    ("results", Json.List (List.map result diagnostics)) ]
              ]) ])
  in
  let action file expr docs stratified format fix_hints =
    let registry = Xdm.Doc_registry.create () in
    load_docs registry docs;
    let src = query_source file expr in
    let artifact =
      match (file, expr) with
      | (_, Some _) -> "<expr>"
      | (Some f, None) -> f
      | (None, None) -> "<stdin>"
    in
    match inspect ~stratified registry src with
    | exception Prepared.Rejected { diagnostics; _ } ->
      (* parse errors: the FQ001 finding alone *)
      (match format with
      | `Text ->
        List.iter (fun d -> print_endline (Diag.to_text d)) diagnostics
      | `Json ->
        print_endline
          (Json.to_string
             (Json.Obj
                [ ("diagnostics",
                   Json.List (List.map diag_json diagnostics)) ]))
      | `Sarif -> print_endline (sarif_string ~artifact diagnostics));
      1
    | prepared ->
      let { Prepared.program = p; analysis; push; _ } = prepared in
      let diagnostics =
        Prepared.diagnostics ~cost:(cost registry prepared) prepared
      in
      let errors =
        List.length (List.filter Diag.is_error diagnostics)
      in
      let fixed =
        if not fix_hints then None
        else
          let (p', applied) = Analyze.apply_hints p analysis in
          if applied = 0 then None
          else
            let src' = Lang.Pretty.program_to_string p' in
            (* both checkers again, on the repaired query *)
            let q = inspect ~stratified registry src' in
            Some (src', applied, q.Prepared.syntactic, q.Prepared.algebraic)
      in
      (match format with
      | `Text ->
        List.iter (fun d -> print_endline (Diag.to_text d)) diagnostics;
        List.iter
          (fun (r : Analyze.ifp_report) ->
            Printf.printf
              "ifp $%s (%s)%s: divergence=%s syntactic=%s%s\n" r.Analyze.var
              r.Analyze.context
              (match r.Analyze.loc with
              | Some (l, c) -> Printf.sprintf " at %d:%d" l c
              | None -> "")
              (Analyze.divergence_string r.Analyze.divergence)
              (if r.Analyze.syntactic then "distributive" else "blamed")
              (match push with
              | Some o when r.Analyze.index = 0 ->
                Printf.sprintf " algebraic=%s"
                  (if o.Fixq_algebra.Push.distributive then "distributive"
                   else "blocked")
              | _ -> ""))
          analysis.Analyze.ifps;
        (match fixed with
        | None ->
          if fix_hints then
            print_endline "fix-hints: nothing to repair"
        | Some (src', applied, syn, alg) ->
          Printf.printf "fix-hints: applied to %d fixed point(s)\n" applied;
          Printf.printf "fix-hints: syntactic after repair: %s\n"
            (if syn then "distributive" else "still not established");
          Printf.printf "fix-hints: algebraic after repair: %s\n"
            (match alg with
            | Some true -> "distributive"
            | Some false -> "still blocked"
            | None -> "no compilable plan");
          print_endline src')
      | `Json ->
        let ifp_json (r : Analyze.ifp_report) =
          let (line, col) =
            match r.Analyze.loc with Some lc -> lc | None -> (0, 0)
          in
          Json.Obj
            ([ ("var", Json.Str r.Analyze.var);
               ("context", Json.Str r.Analyze.context);
               ("line", Json.of_int line);
               ("col", Json.of_int col);
               ("divergence",
                Json.Str (Analyze.divergence_string r.Analyze.divergence));
               ("node_only",
                Json.Bool
                  (r.Analyze.node_only_seed && r.Analyze.node_only_body));
               ("syntactic", Json.Bool r.Analyze.syntactic);
               ("delta_by",
                Json.of_string_opt
                  (Fixq.delta_by ~syntactic:r.Analyze.syntactic
                     ~algebraic:
                       (match push with
                       | Some o when r.Analyze.index = 0 ->
                         Some o.Fixq_algebra.Push.distributive
                       | _ -> None)));
               ("hint_repairable", Json.Bool r.Analyze.hint_repairable) ]
            @ (match r.Analyze.blame with
              | None -> []
              | Some b ->
                [ ("blame_rule", Json.Str b.Lang.Distributivity.rule);
                  ("blame_reason", Json.Str b.Lang.Distributivity.reason) ])
            @
            match push with
            | Some o when r.Analyze.index = 0 ->
              [ ("algebraic", Json.Bool o.Fixq_algebra.Push.distributive) ]
              @ (match o.Fixq_algebra.Push.blocking with
                | Some b -> [ ("blocking", Json.Str b) ]
                | None -> [])
            | _ -> [])
        in
        let fixed_json =
          match fixed with
          | None -> []
          | Some (src', applied, syn, alg) ->
            [ ("fixed",
               Json.Obj
                 [ ("applied", Json.of_int applied);
                   ("syntactic", Json.Bool syn);
                   ("algebraic", Json.of_bool_opt alg);
                   ("query", Json.Str src') ]) ]
        in
        print_endline
          (Json.to_string
             (Json.Obj
                ([ ("diagnostics", Json.List (List.map diag_json diagnostics));
                   ("ifps",
                    Json.List (List.map ifp_json analysis.Analyze.ifps));
                   ("errors", Json.of_int errors) ]
                @ fixed_json)))
      | `Sarif -> print_endline (sarif_string ~artifact diagnostics));
      if errors > 0 then 1 else 0
  in
  let term =
    Term.(const action $ file_arg $ expr_arg $ docs_arg $ stratified_arg
          $ format_arg $ fix_hints_arg)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static analysis with located, coded diagnostics: lint rules, \
          distributivity blame, divergence classification, and \
          auto-applicable distributivity hints.")
    term

let plan_cmd =
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz dot instead of ASCII.")
  in
  let sql_arg =
    Arg.(value & flag
         & info [ "sql" ]
             ~doc:
               "Print the SQL:1999 WITH RECURSIVE rendering of the first \
                IFP site (with a legend of the materialized document \
                relations), or the reason it has none.")
  in
  let action file expr docs dot sql =
    let registry = Xdm.Doc_registry.create () in
    load_docs registry docs;
    let src = query_source file expr in
    if sql then
      match Fixq.sql_of_first_ifp ~registry (Lang.Parser.parse_program src) with
      | None ->
        Printf.eprintf "no compilable IFP body found\n";
        1
      | Some (Error reason) ->
        Printf.printf "not renderable: %s\n" reason;
        0
      | Some (Ok r) ->
        print_endline r.Fixq_algebra.Render_sql.sql;
        List.iter
          (fun l -> Printf.printf "-- %s\n" l)
          (Fixq_algebra.Render_sql.legend r);
        0
    else
      match Fixq.plan_of_first_ifp ~registry (Lang.Parser.parse_program src) with
      | None ->
        Printf.eprintf "no compilable IFP body found\n";
        1
      | Some (fix_id, plan) ->
        if dot then print_string (Fixq_algebra.Render.to_dot plan)
        else begin
          let cards = Fixq_cost.Estimate.plan_cards ~registry plan in
          let annot p =
            Some ("card " ^ Fixq_cost.Estimate.interval_string (cards p))
          in
          print_string
            (Fixq_algebra.Render.to_ascii_annotated ~annot plan);
          let o = Fixq_algebra.Push.check ~fix_id plan in
          Format.printf "%a@." Fixq_algebra.Push.pp_outcome o
        end;
        0
  in
  let term =
    Term.(const action $ file_arg $ expr_arg $ docs_arg $ dot_arg $ sql_arg)
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Print the algebra plan of the first IFP body.")
    term

let explain_cmd =
  let template_arg =
    Arg.(value
         & opt
             (some
                (enum
                   [ ("naive", `Tnaive); ("delta", `Tdelta);
                     ("hint", `Thint) ]))
             None
         & info [ "template" ] ~docv:"KIND"
             ~doc:
               "Instead of the cost report, print the query after a \
                rewrite: 'naive' (the Figure 2 fix/rec templates), \
                'delta' (Figure 4), or 'hint' (the Section 3.2 \
                distributivity hint).")
  in
  let action file expr docs template =
    let src = query_source file expr in
    match template with
    | Some template -> (
      match Lang.Parser.parse_program src with
      | exception Lang.Parser.Error { line; col; msg } ->
        Printf.eprintf "parse error at %d:%d: %s\n" line col msg;
        1
      | p ->
        let rewritten =
          match template with
          | `Tnaive -> Lang.Rewrite.desugar_naive p
          | `Tdelta -> Lang.Rewrite.desugar_delta p
          | `Thint -> Lang.Rewrite.hint_program p
        in
        print_endline (Lang.Pretty.program_to_string rewritten);
        0)
    | None -> (
      let registry = Xdm.Doc_registry.create () in
      load_docs registry docs;
      match inspect ~stratified:false registry src with
      | exception Prepared.Rejected { message; _ } ->
        prerr_endline message;
        1
      | p ->
        print_string (Fixq_cost.Estimate.to_text (cost registry p));
        0)
  in
  let term =
    Term.(const action $ file_arg $ expr_arg $ docs_arg $ template_arg)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Print the static cost report serve's explain op returns — \
          per-operator cardinality intervals from the document synopses, \
          the certified fixpoint round bound when one is derivable, and \
          the per-engine cost estimates that serve's --max-cost admits \
          runs by. With --template, instead print the query rewritten \
          into the paper's recursive-function templates (Figures 2/4) or \
          the distributivity hint.")
    term

(* Shared by serve and cluster: activate a fault-injection schedule
   from --chaos/--chaos-log, falling back to FIXQ_CHAOS/FIXQ_CHAOS_LOG
   so worker processes pick a schedule up from their environment. *)
let setup_chaos ~chaos ~chaos_log =
  let r =
    match chaos with
    | Some spec -> Fixq_chaos.configure spec
    | None -> (
      match Sys.getenv_opt "FIXQ_CHAOS" with
      | Some s when String.trim s <> "" -> Fixq_chaos.configure s
      | _ -> Ok ())
  in
  (match
     ( chaos_log,
       match Sys.getenv_opt "FIXQ_CHAOS_LOG" with
       | Some p when p <> "" -> Some p
       | _ -> None )
   with
  | (Some p, _) | (None, Some p) -> Fixq_chaos.set_log (Some p)
  | (None, None) -> ());
  r

let chaos_arg =
  Arg.(value & opt (some string) None
       & info [ "chaos" ] ~docv:"SCHEDULE"
           ~doc:
             "Deterministic fault-injection schedule, e.g. \
              'seed=42,transport.recv=drop:0.1,fixpoint.round=oom@3'. \
              Items are comma-separated: seed=N, or \
              point=kind[:prob][@nth][#max] with points transport.send, \
              transport.recv, supervisor.ping, \
              server.handle, fixpoint.round, store.read, store.patch, \
              store.wal, store.snapshot, coordinator.rebalance and kinds \
              drop, truncate, kill, oom, delayMS. Falls back to \
              \\$FIXQ_CHAOS.")

let chaos_log_arg =
  Arg.(value & opt (some string) None
       & info [ "chaos-log" ] ~docv:"PATH"
           ~doc:
             "Append fired chaos events ('pid seq point fault' lines) to \
              this file; appends are atomic, so entries survive injected \
              SIGKILLs. Falls back to \\$FIXQ_CHAOS_LOG.")

let max_heap_arg =
  Arg.(value & opt (some int) None
       & info [ "max-heap-mb" ] ~docv:"MB"
           ~doc:
             "Per-request major-heap growth budget; a request growing the \
              heap past it is aborted at the next fixpoint round with a \
              structured error (caches stay intact).")

let shed_heap_arg =
  Arg.(value & opt (some int) None
       & info [ "shed-heap-mb" ] ~docv:"MB"
           ~doc:
             "Load-shedding watermark: reject new query work (with a \
              retry_after_ms hint) while the major heap exceeds this.")

let max_pending_arg =
  Arg.(value & opt (some int) None
       & info [ "max-pending" ] ~docv:"N"
           ~doc:
             "Load-shedding cap: reject new query work while this many \
              requests are already in flight.")

let max_call_depth_arg =
  Arg.(value & opt (some int) None
       & info [ "max-call-depth" ] ~docv:"N"
           ~doc:"User-function recursion depth bound per request.")

let retry_after_arg =
  Arg.(value & opt int 200
       & info [ "retry-after-ms" ] ~docv:"MS"
           ~doc:"retry_after_ms hint attached to shed responses.")

let max_cost_arg =
  Arg.(value & opt (some float) None
       & info [ "max-cost" ] ~docv:"UNITS"
           ~doc:
             "Admission envelope in estimated work units: an unbudgeted \
              query whose predicted cost exceeds this is refused with a \
              structured FQ055 error; a budgeted one runs with its \
              iteration cap clamped to the certified round bound.")

let governor_config ~max_heap_mb ~shed_heap_mb ~max_pending ~max_call_depth
    ~max_cost ~retry_after_ms =
  { Fixq_service.Governor.max_heap_mb; shed_heap_mb; max_pending;
    max_call_depth; max_cost; retry_after_ms }

let serve_cmd =
  let module Service = Fixq_service in
  let pipe_arg =
    Arg.(value & flag
         & info [ "pipe" ]
             ~doc:
               "Serve newline-delimited JSON on stdin/stdout instead of a \
                socket (one response line per request line).")
  in
  let socket_arg =
    let doc = "Unix-domain socket path to listen on." in
    Arg.(value & opt (some string) None
         & info [ "socket"; "s" ] ~docv:"PATH" ~doc)
  in
  let workers_arg =
    let doc =
      "Requests executing at once on a socket. Each connection has its \
       own thread and holds a slot only while one of its requests runs; \
       --pipe answers in order."
    in
    Arg.(value & opt int 1 & info [ "workers"; "j" ] ~docv:"N" ~doc)
  in
  let prepared_cache_arg =
    let doc = "Prepared-query LRU cache capacity (entries)." in
    Arg.(value & opt int 64 & info [ "prepared-cache" ] ~docv:"N" ~doc)
  in
  let result_cache_arg =
    let doc = "Result LRU cache capacity (entries)." in
    Arg.(value & opt int 256 & info [ "result-cache" ] ~docv:"N" ~doc)
  in
  let max_iterations_arg =
    let doc =
      "Default per-request IFP iteration budget; exceeding it yields an \
       error response, not a dead server."
    in
    Arg.(value & opt int 100_000 & info [ "max-iterations" ] ~docv:"N" ~doc)
  in
  let timeout_arg =
    let doc =
      "Default per-request wall-clock budget in milliseconds (checked once \
       per fixpoint round)."
    in
    Arg.(value & opt (some float) None & info [ "timeout-ms" ] ~docv:"MS" ~doc)
  in
  let state_dir_arg =
    let doc =
      "Durability directory: write-ahead-log every accepted document op \
       and snapshot the store there, and recover from it on start \
       (snapshot + WAL tail, tolerating torn tails)."
    in
    Arg.(value & opt (some string) None
         & info [ "state-dir" ] ~docv:"DIR" ~doc)
  in
  let snapshot_threshold_arg =
    let doc =
      "Snapshot (and truncate the WAL) every N logged ops; 0 disables \
       op-triggered snapshots."
    in
    Arg.(value & opt int 64 & info [ "snapshot-threshold" ] ~docv:"N" ~doc)
  in
  let action docs pipe socket workers prepared_cap result_cap max_iterations
      timeout_ms stratified chaos chaos_log max_heap_mb shed_heap_mb
      max_pending max_call_depth max_cost retry_after_ms state_dir
      snapshot_threshold =
    match setup_chaos ~chaos ~chaos_log with
    | Error msg ->
      Printf.eprintf "fixq serve: %s\n" msg;
      2
    | Ok () -> (
    let registry = Xdm.Doc_registry.create () in
    load_docs registry docs;
    let config =
      { Service.Server.workers; prepared_capacity = prepared_cap;
        result_capacity = result_cap; max_iterations; timeout_ms; stratified;
        governor =
          governor_config ~max_heap_mb ~shed_heap_mb ~max_pending
            ~max_call_depth ~max_cost ~retry_after_ms;
        state_dir; snapshot_threshold }
    in
    let store = Service.Store.create ~registry () in
    let server = Service.Server.create ~config ~store () in
    match (pipe, socket) with
    | (true, _) ->
      Service.Server.serve_pipe server stdin stdout;
      0
    | (false, Some path) -> (
      Printf.eprintf "fixq serve: listening on %s\n%!" path;
      match Service.Server.serve_socket server ~path with
      | () -> 0
      | exception Service.Server.Socket_in_use p ->
        Printf.eprintf
          "fixq serve: %s is in use by a live server (stop it or pick \
           another path)\n"
          p;
        1)
    | (false, None) ->
      Printf.eprintf "serve: pass --pipe or --socket PATH\n";
      2)
  in
  let term =
    Term.(const action $ docs_arg $ pipe_arg $ socket_arg $ workers_arg
          $ prepared_cache_arg $ result_cache_arg $ max_iterations_arg
          $ timeout_arg $ stratified_arg $ chaos_arg $ chaos_log_arg
          $ max_heap_arg $ shed_heap_arg $ max_pending_arg
          $ max_call_depth_arg $ max_cost_arg $ retry_after_arg
          $ state_dir_arg $ snapshot_threshold_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the persistent query service: prepared-query and result \
          caches over a versioned document store, speaking \
          newline-delimited JSON ({\"op\":\"run\"|\"check\"|\"plan\"|\
          \"load-doc\"|\"unload-doc\"|\"stats\"|\"ping\"|\"shutdown\"}).")
    term

let cluster_cmd =
  let module C = Fixq_cluster in
  let module Service = Fixq_service in
  let pipe_arg =
    Arg.(value & flag
         & info [ "pipe" ]
             ~doc:"Coordinate on stdin/stdout instead of a socket.")
  in
  let socket_arg =
    let doc = "Unix-domain socket path for the coordinator." in
    Arg.(value & opt (some string) None
         & info [ "socket"; "s" ] ~docv:"PATH" ~doc)
  in
  let workers_arg =
    let doc = "Worker processes to spawn." in
    Arg.(value & opt int 2 & info [ "workers"; "j" ] ~docv:"N" ~doc)
  in
  let replication_arg =
    let doc = "Replicas per document (clamped to the worker count)." in
    Arg.(value & opt int 2 & info [ "replication"; "r" ] ~docv:"N" ~doc)
  in
  let worker_dir_arg =
    let doc = "Directory for worker sockets and logs (default: a fresh /tmp dir)." in
    Arg.(value & opt (some string) None & info [ "worker-dir" ] ~docv:"DIR" ~doc)
  in
  let retries_arg =
    let doc = "Re-sends per request leg before failing over." in
    Arg.(value & opt int 2 & info [ "retries"; "retry-max" ] ~docv:"N" ~doc)
  in
  let backoff_arg =
    let doc = "Base retry backoff in milliseconds (doubles per retry, jittered)." in
    Arg.(value & opt float 50.
         & info [ "backoff-ms"; "retry-base-ms" ] ~docv:"MS" ~doc)
  in
  let jitter_arg =
    let doc =
      "Retry jitter as a fraction of the current backoff (0 disables, \
       making retry timing deterministic)."
    in
    Arg.(value & opt float 0.5 & info [ "retry-jitter" ] ~docv:"FRACTION" ~doc)
  in
  let compact_arg =
    let doc =
      "Fold a document's request-line history into one materialized load \
       once it exceeds N lines (0 disables compaction)."
    in
    Arg.(value & opt int 16 & info [ "compact-patches" ] ~docv:"N" ~doc)
  in
  let cluster_state_dir_arg =
    let doc =
      "Per-worker durability: worker NAME write-ahead-logs and snapshots \
       under DIR/NAME, and recovers from it when respawned."
    in
    Arg.(value & opt (some string) None
         & info [ "state-dir" ] ~docv:"DIR" ~doc)
  in
  let health_arg =
    let doc = "Health-check interval in milliseconds (ping, reap, respawn)." in
    Arg.(value & opt float 500. & info [ "health-interval-ms" ] ~docv:"MS" ~doc)
  in
  let max_iterations_arg =
    let doc = "Default per-request IFP iteration budget on every worker." in
    Arg.(value & opt int 100_000 & info [ "max-iterations" ] ~docv:"N" ~doc)
  in
  let timeout_arg =
    let doc = "Default per-request wall-clock budget in milliseconds." in
    Arg.(value & opt (some float) None & info [ "timeout-ms" ] ~docv:"MS" ~doc)
  in
  let action docs pipe socket workers replication worker_dir retries
      backoff_ms jitter compact_patches state_dir health_ms max_iterations
      timeout_ms stratified chaos chaos_log max_heap_mb shed_heap_mb
      max_pending max_call_depth max_cost retry_after_ms =
    (* the coordinator process hosts the transport/ping points;
       the same schedule is forwarded to every worker (below), where the
       server.handle/fixpoint.round/store.read points live *)
    match setup_chaos ~chaos ~chaos_log with
    | Error msg ->
      Printf.eprintf "fixq cluster: %s\n" msg;
      2
    | Ok () -> (
    let dir =
      match worker_dir with
      | Some d -> d
      | None ->
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "fixq-cluster-%d" (Unix.getpid ()))
    in
    let opt_int flag = function
      | Some n -> [ flag; string_of_int n ]
      | None -> []
    in
    let command ~name ~socket =
      Array.of_list
        ([ Sys.executable_name; "serve"; "--socket"; socket; "--workers"; "4";
           "--max-iterations"; string_of_int max_iterations ]
        @ (match state_dir with
          | Some d -> [ "--state-dir"; Filename.concat d name ]
          | None -> [])
        @ (match timeout_ms with
          | Some t -> [ "--timeout-ms"; string_of_float t ]
          | None -> [])
        @ (if stratified then [ "--stratified" ] else [])
        @ (match chaos with Some s -> [ "--chaos"; s ] | None -> [])
        @ (match chaos_log with Some p -> [ "--chaos-log"; p ] | None -> [])
        @ opt_int "--max-heap-mb" max_heap_mb
        @ opt_int "--shed-heap-mb" shed_heap_mb
        @ opt_int "--max-pending" max_pending
        @ opt_int "--max-call-depth" max_call_depth
        @ (match max_cost with
          | Some c -> [ "--max-cost"; string_of_float c ]
          | None -> [])
        @ [ "--retry-after-ms"; string_of_int retry_after_ms ])
    in
    let config =
      { C.Coordinator.replication; retries;
        backoff_ms; jitter; compact_patches;
        (* transport read budget: the workers' own budget plus slack,
           unbounded when the workers are unbudgeted *)
        timeout_ms = Option.map (fun t -> (t *. 2.) +. 5000.) timeout_ms }
    in
    match
      C.Cluster.launch ~dir ~count:workers ~command ~config
        ~health_interval_ms:health_ms ()
    with
    | exception Failure msg ->
      Printf.eprintf "fixq cluster: %s\n" msg;
      1
    | cluster -> (
      let handle = C.Cluster.respond cluster in
      (* --doc preloads route through the coordinator like any client
         load-doc, so they land on their rendezvous replicas *)
      let preload_failed =
        List.exists
          (fun spec ->
            let (uri, path) =
              match String.index_opt spec '=' with
              | Some i ->
                ( String.sub spec 0 i,
                  String.sub spec (i + 1) (String.length spec - i - 1) )
              | None -> (spec, spec)
            in
            let (resp, _) =
              C.Cluster.handle_line cluster
                (Service.Json.to_string
                   (Service.Json.Obj
                      [ ("op", Service.Json.Str "load-doc");
                        ("uri", Service.Json.Str uri);
                        ("path", Service.Json.Str path) ]))
            in
            match Service.Json.parse resp with
            | j
              when Service.Json.bool_opt (Service.Json.member "ok" j)
                   = Some false ->
              Printf.eprintf "fixq cluster: --doc %s: %s\n" uri
                (Option.value ~default:"load failed"
                   (Service.Json.str_opt (Service.Json.member "error" j)));
              true
            | _ -> false
            | exception Service.Json.Parse_error _ -> true)
          docs
      in
      if preload_failed then begin
        C.Cluster.shutdown cluster;
        1
      end
      else
        let serve () =
          match (pipe, socket) with
          | (true, _) ->
            Service.Server.serve_pipe_with ~handle stdin stdout;
            0
          | (false, Some path) -> (
            Printf.eprintf "fixq cluster: %d workers in %s, listening on %s\n%!"
              workers dir path;
            match
              Service.Server.serve_socket_with ~handle ~workers:4 ~path ()
            with
            | () -> 0
            | exception Service.Server.Socket_in_use p ->
              Printf.eprintf
                "fixq cluster: %s is in use by a live server (stop it or \
                 pick another path)\n"
                p;
              1)
          | (false, None) ->
            Printf.eprintf "cluster: pass --pipe or --socket PATH\n";
            2
        in
        let code = serve () in
        C.Cluster.shutdown cluster;
        code))
  in
  let term =
    Term.(const action $ docs_arg $ pipe_arg $ socket_arg $ workers_arg
          $ replication_arg $ worker_dir_arg $ retries_arg
          $ backoff_arg $ jitter_arg $ compact_arg $ cluster_state_dir_arg
          $ health_arg $ max_iterations_arg $ timeout_arg
          $ stratified_arg $ chaos_arg $ chaos_log_arg
          $ max_heap_arg $ shed_heap_arg $ max_pending_arg
          $ max_call_depth_arg $ max_cost_arg $ retry_after_arg)
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Run a multi-process cluster: N fixq-serve workers behind a \
          coordinator that shards documents by rendezvous hashing, \
          routes every query whole to one replica, fails over to the \
          next, and respawns crashed workers.")
    term

let client_cmd =
  let module C = Fixq_cluster in
  let socket_arg =
    let doc = "Unix-domain socket of a fixq serve or fixq cluster." in
    Arg.(required & opt (some string) None
         & info [ "socket"; "s" ] ~docv:"PATH" ~doc)
  in
  let timeout_arg =
    let doc = "Per-response read timeout in milliseconds." in
    Arg.(value & opt (some float) None & info [ "timeout-ms" ] ~docv:"MS" ~doc)
  in
  let action socket timeout_ms patches =
    let tr = C.Transport.create socket in
    (* Annotated run responses additionally render their
       node @ annotation pairs, so a terminal client sees the semiring
       output without parsing JSON. *)
    let module Json = Fixq_service.Json in
    let print_annotations resp =
      match Json.parse resp with
      | Json.Obj fields -> (
        match (List.assoc_opt "semiring" fields,
               List.assoc_opt "annotations" fields) with
        | Some (Json.Str kind), Some (Json.List rows) ->
          Printf.printf "-- accumulate by %s --\n" kind;
          List.iter
            (fun row ->
              match (Json.str_opt (Json.member "x" row),
                     Json.str_opt (Json.member "a" row)) with
              | Some x, Some a -> Printf.printf "%s @ %s\n" x a
              | _ -> ())
            rows
        | _ -> ())
      | _ | (exception _) -> ()
    in
    let send line =
      match C.Transport.call ?timeout_ms tr line with
      | Ok resp ->
        print_endline resp;
        print_annotations resp;
        true
      | Error e ->
        Printf.eprintf "fixq client: %s\n" e;
        false
    in
    (* --patch requests go first, then the stdin request loop *)
    let patched =
      List.for_all
        (fun (uri, op) -> send (patch_request_line uri op))
        (parse_patch_specs patches)
    in
    let rec loop () =
      match input_line stdin with
      | exception End_of_file -> 0
      | line when String.trim line = "" -> loop ()
      | line -> if send line then loop () else 1
    in
    let code = if patched then loop () else 1 in
    C.Transport.close tr;
    code
  in
  let term = Term.(const action $ socket_arg $ timeout_arg $ patch_arg) in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Forward newline-delimited JSON requests from stdin to a serve or \
          cluster socket, one response line per request.")
    term

let generate_cmd =
  let kind_arg =
    Arg.(required
         & pos 0
             (some (enum [ ("xmark", `Xmark); ("curriculum", `Curriculum);
                           ("play", `Play); ("hospital", `Hospital) ]))
             None
         & info [] ~docv:"KIND" ~doc:"xmark | curriculum | play | hospital")
  in
  let size_arg =
    Arg.(value & opt float 0.002
         & info [ "size" ] ~docv:"N"
             ~doc:"Scale factor (xmark) or element count (others).")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let action kind size seed =
    let doc =
      match kind with
      | `Xmark -> W.Xmark.generate { W.Xmark.default with scale = size; seed }
      | `Curriculum ->
        W.Curriculum.generate
          { W.Curriculum.default with courses = int_of_float size; seed }
      | `Play -> W.Shakespeare.generate { W.Shakespeare.default with seed }
      | `Hospital ->
        W.Hospital.generate
          { W.Hospital.default with total = int_of_float size; seed }
    in
    print_string (Xdm.Serializer.to_string ~indent:true doc);
    print_newline ();
    0
  in
  let term = Term.(const action $ kind_arg $ size_arg $ seed_arg) in
  Cmd.v
    (Cmd.info "generate" ~doc:"Emit a benchmark document on stdout.")
    term

let () =
  let info =
    Cmd.info "fixq" ~version:"1.0.0"
      ~doc:"An inflationary fixed point operator for XQuery (ICDE 2008 reproduction)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ run_cmd; check_cmd; lint_cmd; plan_cmd; explain_cmd; generate_cmd;
            repl_cmd; serve_cmd; cluster_cmd; client_cmd ]))
