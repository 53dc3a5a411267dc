module Patch = Fixq_xdm.Patch

type doc_source =
  | From_xml of string
  | From_path of string
  | From_generator of { kind : string; size : float option; seed : int }

type run_params = {
  query : string;
  engine : [ `Interp | `Algebra | `Sql ];
  mode : [ `Pinned | `Naive | `Delta ];
  stratified : bool option;
  max_iterations : int option;
  timeout_ms : float option;
  cache : bool;
}

type stats_format = Stats_json | Stats_prometheus

type request =
  | Run of run_params
  | Prepare of { query : string; stratified : bool option }
  | Check of { query : string; stratified : bool option }
  | Plan of { query : string; stratified : bool option }
  | Explain of { query : string; stratified : bool option }
  | Load_doc of { uri : string; source : doc_source }
  | Unload_doc of { uri : string }
  | Patch_doc of { uri : string; op : Patch.op }
  | Snapshot
  | Dump_doc of { uri : string }
  | Add_worker
  | Remove_worker of { name : string }
  | Drain of { name : string }
  | Stats of stats_format
  | Ping
  | Shutdown

let request_id j = Json.member "id" j

let query_of j =
  match Json.str_opt (Json.member "query" j) with
  | Some q -> Ok q
  | None -> Error "missing string member \"query\""

let ( let* ) r f = Result.bind r f

let parse_request j =
  match Json.str_opt (Json.member "op" j) with
  | None -> Error "missing string member \"op\""
  | Some op -> (
    let stratified = Json.bool_opt (Json.member "stratified" j) in
    match op with
    | "run" ->
      let* query = query_of j in
      let* engine =
        match Json.str_opt (Json.member "engine" j) with
        | None | Some "interp" -> Ok `Interp
        | Some "algebra" -> Ok `Algebra
        | Some "sql" -> Ok `Sql
        | Some other ->
          Error (Printf.sprintf "unknown engine %S (interp|algebra|sql)" other)
      in
      let* mode =
        match Json.str_opt (Json.member "mode" j) with
        | None | Some "auto" -> Ok `Pinned
        | Some "naive" -> Ok `Naive
        | Some "delta" -> Ok `Delta
        | Some other ->
          Error (Printf.sprintf "unknown mode %S (auto|naive|delta)" other)
      in
      (* A client asking for a seed slice must not silently get the
         whole result. *)
      let* () =
        if Json.member "partition" j = Json.Null then Ok ()
        else
          Error
            "run no longer accepts \"partition\": seed-sliced runs were \
             removed; send the whole query"
      in
      Ok
        (Run
           { query; engine; mode; stratified;
             max_iterations = Json.int_opt (Json.member "max_iterations" j);
             timeout_ms = Json.num_opt (Json.member "timeout_ms" j);
             cache =
               Option.value ~default:true
                 (Json.bool_opt (Json.member "cache" j)) })
    | "prepare" ->
      let* query = query_of j in
      Ok (Prepare { query; stratified })
    | "check" ->
      let* query = query_of j in
      Ok (Check { query; stratified })
    | "plan" ->
      let* query = query_of j in
      Ok (Plan { query; stratified })
    | "explain" ->
      let* query = query_of j in
      Ok (Explain { query; stratified })
    | "load-doc" -> (
      match Json.str_opt (Json.member "uri" j) with
      | None -> Error "missing string member \"uri\""
      | Some uri ->
        let* source =
          match
            ( Json.str_opt (Json.member "xml" j),
              Json.str_opt (Json.member "path" j),
              Json.str_opt (Json.member "generate" j) )
          with
          | (Some xml, None, None) -> Ok (From_xml xml)
          | (None, Some path, None) -> Ok (From_path path)
          | (None, None, Some kind) ->
            Ok
              (From_generator
                 { kind;
                   size = Json.num_opt (Json.member "size" j);
                   seed =
                     Option.value ~default:42
                       (Json.int_opt (Json.member "seed" j)) })
          | (None, None, None) ->
            Error "load-doc needs one of \"xml\", \"path\", \"generate\""
          | _ ->
            Error "load-doc takes exactly one of \"xml\", \"path\", \"generate\""
        in
        Ok (Load_doc { uri; source }))
    | "unload-doc" -> (
      match Json.str_opt (Json.member "uri" j) with
      | Some uri -> Ok (Unload_doc { uri })
      | None -> Error "missing string member \"uri\"")
    | "patch-doc" -> (
      match
        ( Json.str_opt (Json.member "uri" j),
          Json.str_opt (Json.member "path" j) )
      with
      | (None, _) -> Error "missing string member \"uri\""
      | (_, None) -> Error "missing string member \"path\""
      | (Some uri, Some path) ->
        let xml_of () =
          match Json.str_opt (Json.member "xml" j) with
          | Some xml -> Ok xml
          | None -> Error "missing string member \"xml\""
        in
        let* op =
          match Json.str_opt (Json.member "action" j) with
          | Some "insert" ->
            let* xml = xml_of () in
            let* position =
              match Json.str_opt (Json.member "position" j) with
              | None -> Ok Patch.Last
              | Some s -> (
                match Patch.position_of_string s with
                | Some p -> Ok p
                | None ->
                  Error
                    (Printf.sprintf
                       "unknown position %S \
                        (into|into-first|into-last|before|after)"
                       s))
            in
            Ok (Patch.Insert { path; position; xml })
          | Some "delete" -> Ok (Patch.Delete { path })
          | Some "replace" ->
            let* xml = xml_of () in
            Ok (Patch.Replace { path; xml })
          | Some "set-text" -> (
            match Json.str_opt (Json.member "text" j) with
            | Some text -> Ok (Patch.Set_text { path; text })
            | None -> Error "missing string member \"text\"")
          | Some other ->
            Error
              (Printf.sprintf
                 "unknown action %S (insert|delete|replace|set-text)" other)
          | None -> Error "missing string member \"action\""
        in
        Ok (Patch_doc { uri; op }))
    | "stats" -> (
      match Json.str_opt (Json.member "format" j) with
      | None | Some "json" -> Ok (Stats Stats_json)
      | Some "prometheus" -> Ok (Stats Stats_prometheus)
      | Some other ->
        Error (Printf.sprintf "unknown stats format %S (json|prometheus)" other))
    | "snapshot" -> Ok Snapshot
    | "dump-doc" -> (
      match Json.str_opt (Json.member "uri" j) with
      | Some uri -> Ok (Dump_doc { uri })
      | None -> Error "missing string member \"uri\"")
    | "add-worker" -> Ok Add_worker
    | "remove-worker" -> (
      match Json.str_opt (Json.member "worker" j) with
      | Some name -> Ok (Remove_worker { name })
      | None -> Error "missing string member \"worker\"")
    | "drain" -> (
      match Json.str_opt (Json.member "worker" j) with
      | Some name -> Ok (Drain { name })
      | None -> Error "missing string member \"worker\"")
    | "ping" -> Ok Ping
    | "shutdown" -> Ok Shutdown
    | other -> Error (Printf.sprintf "unknown op %S" other))

(* [--patch] convenience grammar: URI ACTION [PAYLOAD] at /PATH
   [POSITION]. The payload/path boundary is the {e last} " at " — paths
   contain no spaces, so payload XML may mention "at" freely. *)
let parse_patch_spec spec =
  let split_first s =
    match String.index_opt s ' ' with
    | None -> (s, "")
    | Some i ->
      ( String.sub s 0 i,
        String.trim (String.sub s (i + 1) (String.length s - i - 1)) )
  in
  let uri, rest = split_first (String.trim spec) in
  let action, rest = split_first rest in
  let usage = "expected \"URI ACTION [PAYLOAD] at /PATH [POSITION]\"" in
  if uri = "" || action = "" then Error ("patch spec: " ^ usage)
  else begin
    let padded = " " ^ rest in
    let n = String.length padded in
    let last_at = ref None in
    for i = 0 to n - 4 do
      if String.sub padded i 4 = " at " then last_at := Some i
    done;
    match !last_at with
    | None -> Error ("patch spec: missing \" at /PATH\"; " ^ usage)
    | Some i ->
      let payload = String.trim (String.sub padded 0 i) in
      let tail = String.trim (String.sub padded (i + 4) (n - i - 4)) in
      let path, pos_str = split_first tail in
      let ( let* ) = Result.bind in
      let* position =
        match pos_str with
        | "" -> Ok Patch.Last
        | s -> (
          match Patch.position_of_string s with
          | Some p -> Ok p
          | None ->
            Error
              (Printf.sprintf
                 "patch spec: unknown position %S \
                  (into|into-first|into-last|before|after)"
                 s))
      in
      let* () =
        if path = "" then Error ("patch spec: missing path; " ^ usage)
        else Ok ()
      in
      let need_payload what =
        if payload = "" then
          Error (Printf.sprintf "patch spec: %s needs %s" action what)
        else Ok payload
      in
      let* op =
        match action with
        | "insert" ->
          let* xml = need_payload "an XML payload" in
          Ok (Patch.Insert { path; position; xml })
        | "replace" ->
          let* xml = need_payload "an XML payload" in
          Ok (Patch.Replace { path; xml })
        | "set-text" -> Ok (Patch.Set_text { path; text = payload })
        | "delete" ->
          if payload <> "" then
            Error "patch spec: delete takes no payload"
          else Ok (Patch.Delete { path })
        | other ->
          Error
            (Printf.sprintf
               "patch spec: unknown action %S \
                (insert|delete|replace|set-text)"
               other)
      in
      Ok (uri, op)
  end

let with_id ~id fields =
  match id with Json.Null -> fields | id -> ("id", id) :: fields

let error_response ?(extra = []) ~id msg =
  Json.Obj
    (("ok", Json.Bool false)
    :: with_id ~id (("error", Json.Str msg) :: extra))

let ok_response ~id fields =
  Json.Obj (("ok", Json.Bool true) :: with_id ~id fields)

let diag_json (d : Fixq_analysis.Diag.t) =
  let module Diag = Fixq_analysis.Diag in
  let (line, col) = match d.Diag.loc with Some lc -> lc | None -> (0, 0) in
  Json.Obj
    [ ("severity", Json.Str (Diag.severity_string d.Diag.severity));
      ("code", Json.Str d.Diag.code);
      ("line", Json.of_int line);
      ("col", Json.of_int col);
      ("context", Json.Str d.Diag.context);
      ("message", Json.Str d.Diag.message) ]
