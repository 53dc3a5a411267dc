module Xdm = Fixq_xdm
module Analyze = Fixq_analysis.Analyze
module Ivm = Fixq_ivm.Ivm
module Semiring = Fixq_semiring.Semiring

type config = {
  workers : int;
  prepared_capacity : int;
  result_capacity : int;
  max_iterations : int;
  timeout_ms : float option;
  stratified : bool;
  governor : Governor.config;
  state_dir : string option;
  snapshot_threshold : int;
}

let default_config =
  { workers = 1; prepared_capacity = 64; result_capacity = 256;
    max_iterations = 100_000; timeout_ms = None; stratified = false;
    governor = Governor.default_config; state_dir = None;
    snapshot_threshold = 64 }

(* What [patch-doc] did to one query's entries, over all patches. *)
type ivm_counters = {
  mutable maintained : int;  (** untouched entries included *)
  mutable fallback : int;  (** dropped for a recompute *)
  mutable delta_nodes : int;
  mutable untouched : int;
}

type t = {
  config : config;
  store : Store.t;
  prepared : (string, Prepared.t) Lru.t;
  results : Result_cache.t;
  metrics : Metrics.t;
  governor : Governor.t;
  ivm_counters : (string, ivm_counters) Hashtbl.t;
      (** per query hash.
          Kept apart from the entries so they survive eviction; written
          only by [patch-doc], which holds [docs_lock] exclusively *)
  started_at : float;
  docs_lock : Rwlock.t;
      (** [load-doc], [unload-doc] and [patch-doc] edit trees in place,
          so they hold it exclusively; every other op shares it *)
  analysis_counters : (string, int) Hashtbl.t;
      (** divergence class of each freshly prepared query, plus
          refusals — exposed in stats JSON and Prometheus *)
  analysis_lock : Mutex.t;
  mutable durable : Durability.t option;
      (** the snapshot+WAL pair when running with [state_dir] — [None]
          during recovery replay, so replayed ops are not re-logged *)
  mutable recovered_stats : (string * Json.t) list;
      (** what the last recovery restored (stats exposition) *)
}

(* [create] proper lives below the request handlers: recovery replays
   WAL ops through them. *)
let create_raw ?(config = default_config) ?(store = Store.create ()) () =
  { config; store;
    prepared = Lru.create ~capacity:config.prepared_capacity ();
    results = Result_cache.create ~capacity:config.result_capacity ();
    metrics = Metrics.create (); governor = Governor.create config.governor;
    ivm_counters = Hashtbl.create 8;
    started_at = Unix.gettimeofday ();
    docs_lock = Rwlock.create ();
    analysis_counters = Hashtbl.create 8; analysis_lock = Mutex.create ();
    durable = None; recovered_stats = [] }

let bump_analysis t key =
  Mutex.lock t.analysis_lock;
  Hashtbl.replace t.analysis_counters key
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.analysis_counters key));
  Mutex.unlock t.analysis_lock

let analysis_counter_rows t =
  Mutex.lock t.analysis_lock;
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.analysis_counters [] in
  Mutex.unlock t.analysis_lock;
  List.sort compare rows

let store t = t.store
let config t = t.config
let governor t = t.governor

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let mode_string = function
  | Fixq.Naive -> "naive"
  | Fixq.Delta -> "delta"
  | Fixq.Auto -> "auto"

let preview query =
  let flat =
    String.map (function '\n' | '\r' | '\t' -> ' ' | c -> c) query
  in
  if String.length flat <= 60 then flat else String.sub flat 0 57 ^ "..."

(* Prepared-query cache: keyed by source text (and the stratified flag,
   which changes both distributivity checks). *)
let prepared_key ~stratified query = (if stratified then "s|" else "p|") ^ query

let get_prepared t ~stratified ~max_iterations query =
  let key = prepared_key ~stratified query in
  match Lru.find t.prepared key with
  | Some p -> (p, "hit")
  | None ->
    let p = Prepared.prepare ~store:t.store ~stratified ~max_iterations query in
    (match Prepared.divergence p with
    | Some d -> bump_analysis t (Analyze.divergence_string d)
    | None -> ());
    (match Prepared.semiring p with
    | Some k -> bump_analysis t ("semiring:" ^ Semiring.kind_to_string k)
    | None -> ());
    Lru.put t.prepared key p;
    (p, "miss")

(* The SQL verdict and the sql engine's estimate row it shapes, for the
   requests that read them; the rendered entry replaces the cached one
   so its next reader does not render again. *)
let with_sql t ~stratified query p =
  let p' = Prepared.with_sql p in
  if p' != p then Lru.put t.prepared (prepared_key ~stratified query) p';
  p'

let engine_string = function
  | `Interp -> "interp"
  | `Algebra -> "algebra"
  | `Sql -> "sql"

(* A maintained entry's hit reports what its maintenance did beside the
   adopting run's [nodes_fed] and [depth]. *)
let maintenance_json (m : Result_cache.maintenance) =
  Json.Obj
    [ ("patches", Json.of_int m.Result_cache.patches);
      ("delta", Json.of_int m.Result_cache.delta);
      ("rounds", Json.of_int m.Result_cache.maintenance_rounds) ]

let maintenance_of_json = function
  | Json.Obj _ as j -> (
    let int name = Json.int_opt (Json.member name j) in
    match (int "patches", int "delta", int "rounds") with
    | (Some patches, Some delta, Some maintenance_rounds) ->
      Some { Result_cache.patches; delta; maintenance_rounds }
    | _ -> None)
  | _ -> None

(* A run looks its result up first, keyed by the text and the requested
   options, so a valid cached answer that admission cannot change skips
   preparing altogether. Everything else prepares, passes admission
   (FQ040/FQ043/FQ055, down-budgeting) and then uses the entry that one
   lookup found, or executes. *)
let handle_run t ~out ~id
    { Protocol.query; engine; mode; stratified; max_iterations; timeout_ms;
      cache } =
  (* A budget is an explicit request-level iteration or time bound, or
     a server-wide timeout. The config's max_iterations default is a
     backstop, not a budget the caller chose. *)
  let unbudgeted =
    max_iterations = None && timeout_ms = None && t.config.timeout_ms = None
  in
  let stratified = Option.value ~default:t.config.stratified stratified in
  let max_iterations =
    Option.value ~default:t.config.max_iterations max_iterations
  in
  let timeout_ms =
    match timeout_ms with Some _ as x -> x | None -> t.config.timeout_ms
  in
  let generation = Store.generation t.store in
  let rkey =
    Result_cache.key ~query ~engine:(engine_string engine)
      ~mode:
        (match mode with
        | `Pinned -> "pinned"
        | `Naive -> "naive"
        | `Delta -> "delta")
      ~stratified
  in
  let cached =
    if cache then
      Result_cache.find t.results rkey
        ~current:(Store.doc_generation t.store) ~max_iterations
    else None
  in
  let respond ?prepared_status ~result_status ?(cost_extra = [])
      ?(extra = []) ?result (entry : Result_cache.entry) =
    let annotated =
      match entry.Result_cache.semiring with
      | None -> []
      | Some kind ->
        [ ("semiring", Json.Str kind);
          ("annotations",
           Json.List
             (List.map
                (fun (x, a) ->
                  Json.Obj [ ("x", Json.Str x); ("a", Json.Str a) ])
                entry.Result_cache.annotations)) ]
    in
    Protocol.ok_response ~id
      ([ ("engine", Json.Str entry.Result_cache.engine);
         ("mode", Json.Str entry.Result_cache.mode);
         ("used_delta", Json.of_bool_opt entry.Result_cache.used_delta) ]
      @ (match prepared_status with
        | Some s -> [ ("prepared_cache", Json.Str s) ]
        | None -> [])
      @ [ ("result_cache", Json.Str result_status);
          ("generation", Json.of_int generation);
          ("nodes_fed", Json.of_int entry.Result_cache.nodes_fed);
          ("depth", Json.of_int entry.Result_cache.depth) ]
      @ (match entry.Result_cache.maintenance with
        | Some m -> [ ("maintenance", maintenance_json m) ]
        | None -> [])
      @ [ ("result",
            Option.value result ~default:(Json.Raw entry.Result_cache.escaped)) ]
      @ cost_extra @ annotated @ extra
      @ [ ("wall_ms", Json.Num entry.Result_cache.wall_ms) ])
  in
  match cached with
  | Some entry
    when not
           (entry.Result_cache.over_envelope
           || (unbudgeted && entry.Result_cache.may_diverge)) ->
    respond ~result_status:"hit" entry
  | _ ->
  let (prepared, prepared_status) =
    get_prepared t ~stratified ~max_iterations query
  in
  let may_diverge =
    match Prepared.divergence prepared with
    | Some (Analyze.May_diverge reason) -> Some reason
    | _ -> None
  in
  match may_diverge with
  | Some reason when unbudgeted ->
    bump_analysis t "refused";
    (* An unstable [accumulate by] semiring gets its own code so
       clients can distinguish "your aggregate cannot stabilize" from
       the structural may-diverge verdict. *)
    let code =
      match Prepared.semiring prepared with
      | Some k when Semiring.stability k = Semiring.Unstable -> "FQ043"
      | _ -> "FQ040"
    in
    Protocol.error_response ~id
      ~extra:
        [ ("code", Json.Str code);
          ("divergence", Json.Str "may-diverge");
          ("reason", Json.Str reason) ]
      (Printf.sprintf
         "query may diverge (%s) and carries no budget: set \
          max_iterations or timeout_ms"
         reason)
  | _ ->
  let engine_str = engine_string engine in
  (* Admission control is the one reader of the estimate on the run
     path: without a [max_cost] envelope nothing is estimated. It reads
     the requested engine's row, and the sql row needs the rendering. *)
  let over_envelope =
    match (Governor.config t.governor).Governor.max_cost with
    | None -> None
    | Some envelope ->
      let prepared =
        match engine with
        | `Sql -> with_sql t ~stratified query prepared
        | `Interp | `Algebra -> prepared
      in
      let cost = Prepared.cost ~store:t.store prepared in
      let predicted_cost =
        match
          List.find_opt
            (fun e -> e.Fixq_cost.Estimate.eng_name = engine_str)
            cost.Fixq_cost.Estimate.engines
        with
        | Some e -> e.Fixq_cost.Estimate.eng_cost
        | None -> cost.Fixq_cost.Estimate.work
      in
      if predicted_cost > envelope then
        Some (envelope, predicted_cost, cost.Fixq_cost.Estimate.rounds_bound)
      else None
  in
  match over_envelope with
  | Some (envelope, predicted_cost, rounds_bound) when unbudgeted ->
    (* Admission control: predicted cost exceeds the governor envelope
       and the caller brought no budget of their own. *)
    bump_analysis t "refused-cost";
    Protocol.error_response ~id
      ~extra:
        [ ("code", Json.Str "FQ055");
          ("engine", Json.Str engine_str);
          ("estimated_cost", Json.Num (Float.round predicted_cost));
          ("max_cost", Json.Num envelope);
          ("rounds_bound",
           (match rounds_bound with
           | Some b -> Json.of_int b
           | None -> Json.Null)) ]
      (Printf.sprintf
         "predicted cost %.0f exceeds the admission envelope %.0f and the \
          request carries no budget: set max_iterations or timeout_ms"
         predicted_cost envelope)
  | _ ->
  (* Budgeted but over the envelope: down-budget the iteration cap to
     the certified round bound — the run cannot legitimately need more
     rounds, so this only cuts runaway headroom. *)
  let down_budgeted =
    match over_envelope with
    | Some (_, _, Some bound) when bound < max_iterations -> Some bound
    | _ -> None
  in
  let max_iterations = Option.value ~default:max_iterations down_budgeted in
  let cost_extra =
    match (down_budgeted, over_envelope) with
    | Some bound, Some (_, predicted_cost, _) ->
      [ ("down_budgeted", Json.of_int bound);
        ("estimated_cost", Json.Num (Float.round predicted_cost)) ]
    | _ -> []
  in
  match cached with
  | Some entry when Result_cache.within ~max_iterations entry ->
    respond ~prepared_status ~result_status:"hit" ~cost_extra entry
  | _ ->
    let run_mode =
      match mode with
      | `Pinned -> prepared.Prepared.mode
      | `Naive -> Fixq.Naive
      | `Delta -> Fixq.Delta
    in
    let deadline =
      Option.map (fun ms -> Unix.gettimeofday () +. (ms /. 1000.0)) timeout_ms
    in
    let fixq_engine =
      match engine with
      | `Interp -> Fixq.Interpreter run_mode
      | `Algebra -> Fixq.Algebra run_mode
      | `Sql -> Fixq.Sql run_mode
    in
    let report, footprint =
      Store.track t.store (fun () ->
          Governor.with_memory_budget t.governor (fun ~round_check ->
              Fixq.run_program ~registry:(Store.registry t.store)
                ~max_iterations ~stratified ?deadline ~round_hook:round_check
                ?max_call_depth:
                  (Governor.config t.governor).Governor.max_call_depth
                ~engine:fixq_engine prepared.Prepared.program))
    in
    (* The answer is written into the connection's buffer. An entry the
       cache keeps takes a string of its own, and the response prints
       that; otherwise the response views the buffer. *)
    Xdm.Serializer.json_into out report.Fixq.result;
    let keep = cache && Store.generation t.store = generation in
    let entry =
      { Result_cache.escaped = (if keep then Buffer.contents out else "");
        engine = engine_str; mode = mode_string run_mode;
        used_delta = report.Fixq.used_delta;
        nodes_fed = report.Fixq.nodes_fed; depth = report.Fixq.depth;
        rounds = report.Fixq.depth; wall_ms = report.Fixq.wall_ms;
        footprint; semiring = report.Fixq.semiring;
        annotations = report.Fixq.annotations;
        may_diverge = may_diverge <> None;
        over_envelope = over_envelope <> None; ivm = None; maintenance = None }
    in
    (* Cache only when no document changed under the evaluation: a
       concurrent load-doc would make this entry's footprint stamps a
       lie. Eligible fixpoints carry their IVM state, so a later
       patch-doc can update the cached bytes differentially. *)
    if keep then
      Result_cache.put t.results rkey
        { entry with
          Result_cache.ivm =
            Ivm.adopt ~registry:(Store.registry t.store) ~source:query
              ~program:prepared.Prepared.program ~stratified ~max_iterations
              report.Fixq.result };
    Metrics.record t.metrics ~key:prepared.Prepared.hash
      ~label:(preview query) ~ms:report.Fixq.wall_ms;
    respond ~prepared_status ~result_status:"miss" ~cost_extra
      ?result:(if keep then None else Some (Json.Raw_buffer out)) entry

(* The prepared entry behind a prepare, check, plan or explain, and the
   stratified setting it was prepared under. *)
let prepare_op t query stratified =
  let stratified = Option.value ~default:t.config.stratified stratified in
  let (p, status) =
    get_prepared t ~stratified ~max_iterations:t.config.max_iterations query
  in
  (stratified, p, status)

(* prepare: warm the prepared-query LRU (parse + static check + both
   verdicts + pinned modes + compiled plan) without executing — the
   cluster coordinator uses this to warm every replica before traffic. *)
let handle_prepare t ~id query stratified =
  let (_, p, prepared_status) = prepare_op t query stratified in
  Protocol.ok_response ~id
    [ ("prepared_cache", Json.Str prepared_status);
      ("hash", Json.Str p.Prepared.hash);
      ("ifp_count", Json.of_int p.Prepared.ifp_count);
      ("interp_mode", Json.Str (mode_string p.Prepared.mode));
      ("algebra_mode", Json.Str (mode_string p.Prepared.mode));
      ("delta_by", Json.of_string_opt (Prepared.delta_by p));
      ("has_plan", Json.Bool (p.Prepared.plan <> None));
      ("prepare_ms", Json.Num p.Prepared.prepare_ms) ]

let handle_check t ~id query stratified =
  let (stratified, p, prepared_status) = prepare_op t query stratified in
  let p = with_sql t ~stratified query p in
  let cost = Prepared.cost ~store:t.store p in
  let first = match p.Prepared.analysis.Analyze.ifps with
    | r :: _ -> Some r
    | [] -> None
  in
  Protocol.ok_response ~id
    [ ("ifp_count", Json.of_int p.Prepared.ifp_count);
      ("syntactic", Json.Bool p.Prepared.syntactic);
      ("algebraic", Json.of_bool_opt p.Prepared.algebraic);
      ("interp_mode", Json.Str (mode_string p.Prepared.mode));
      ("algebra_mode", Json.Str (mode_string p.Prepared.mode));
      ("delta_by", Json.of_string_opt (Prepared.delta_by p));
      ("stratified", Json.Bool stratified);
      ("warnings",
       Json.List (List.map (fun w -> Json.Str w) p.Prepared.warnings));
      ("diagnostics",
       Json.List (List.map Protocol.diag_json (Prepared.diagnostics ~cost p)));
      ("divergence",
       (match Prepared.divergence p with
       | Some d -> Json.Str (Analyze.divergence_string d)
       | None -> Json.Null));
      ("semiring",
       (match Prepared.semiring p with
       | Some k -> Json.Str (Semiring.kind_to_string k)
       | None -> Json.Null));
      ("convergence",
       (match Prepared.semiring p with
       | Some k -> Json.Str (Semiring.stability_string (Semiring.stability k))
       | None -> Json.Null));
      ("node_only",
       Json.of_bool_opt
         (Option.map
            (fun r -> r.Analyze.node_only_seed && r.Analyze.node_only_body)
            first));
      ("ivm",
       Json.Str
         (Analyze.ivm_string
            (Analyze.ivm_eligibility ~stratified p.Prepared.program)));
      ("blocking",
       (match p.Prepared.push with
       | Some { Fixq_algebra.Push.blocking = Some b; _ } -> Json.Str b
       | _ -> Json.Null));
      ("sql_renderable",
       Json.of_bool_opt (Option.map Result.is_ok p.Prepared.sql));
      ("sql_reason",
       (match p.Prepared.sql with
       | Some (Error reason) -> Json.Str reason
       | Some (Ok _) | None -> Json.Null));
      ("rounds_bound",
       (match cost.Fixq_cost.Estimate.rounds_bound with
       | Some b -> Json.of_int b
       | None -> Json.Null));
      ("bound_reason", Json.Str cost.Fixq_cost.Estimate.bound_reason);
      ("estimated_cost",
       Json.Obj
         (List.map
            (fun e ->
              ( e.Fixq_cost.Estimate.eng_name,
                Json.Num (Float.round e.Fixq_cost.Estimate.eng_cost) ))
            cost.Fixq_cost.Estimate.engines));
      ("prepared_cache", Json.Str prepared_status) ]

let handle_plan t ~id query stratified =
  let (_, p, prepared_status) = prepare_op t query stratified in
  match p.Prepared.plan with
  | None ->
    Protocol.error_response ~id
      "no compilable IFP body found (interpreter-only query)"
  | Some (_, plan) ->
    let cards =
      Fixq_cost.Estimate.plan_cards ~registry:(Store.registry t.store) plan
    in
    let annot p =
      Some ("card " ^ Fixq_cost.Estimate.interval_string (cards p))
    in
    Protocol.ok_response ~id
      [ ("distributive", Json.of_bool_opt p.Prepared.algebraic);
        ("prepared_cache", Json.Str prepared_status);
        ("plan", Json.Str (Fixq_algebra.Render.to_ascii_annotated ~annot plan)) ]

(* explain: the full cost report — per-engine estimates, certified round
   bound, per-operator cardinality table — without executing anything. *)
let handle_explain t ~id query stratified =
  let (stratified, p, prepared_status) = prepare_op t query stratified in
  let p = with_sql t ~stratified query p in
  let module E = Fixq_cost.Estimate in
  let c = Prepared.cost ~store:t.store p in
  Protocol.ok_response ~id
    [ ("prepared_cache", Json.Str prepared_status);
      ("work", Json.Num (Float.round c.E.work));
      ("result_card", Json.Str (E.interval_string c.E.result_card));
      ("rounds_bound",
       (match c.E.rounds_bound with
       | Some b -> Json.of_int b
       | None -> Json.Null));
      ("bound_reason", Json.Str c.E.bound_reason);
      ("engines",
       Json.List
         (List.map
            (fun e ->
              Json.Obj
                [ ("name", Json.Str e.E.eng_name);
                  ("cost", Json.Num (Float.round e.E.eng_cost));
                  ("native", Json.Bool e.E.eng_native);
                  ("note", Json.Str e.E.eng_note) ])
            c.E.engines));
      ("operators",
       Json.List
         (List.map
            (fun r ->
              Json.Obj
                ([ ("desc", Json.Str r.E.op_desc);
                   ("depth", Json.of_int r.E.op_depth);
                   ("card", Json.Str (E.interval_string r.E.op_card)) ]
                @ (match r.E.op_loc with
                  | Some (l, col) ->
                    [ ("line", Json.of_int l); ("col", Json.of_int col) ]
                  | None -> [])
                @
                match r.E.op_note with
                | Some n -> [ ("note", Json.Str n) ]
                | None -> []))
            c.E.rows));
      ("diagnostics", Json.List (List.map Protocol.diag_json c.E.diagnostics));
      ("text", Json.Str (E.to_text c)) ]

(* Whether a result-cache entry carries IVM state over [uri]. *)
let maintained_over uri e =
  e.Result_cache.ivm <> None && List.mem_assoc uri e.Result_cache.footprint

(* A wholesale replacement or an unload leaves nothing to maintain an
   entry through — only patch-doc preserves node identity — so entries
   over [uri] lose their IVM state, and with it their hold on the old
   tree. Their bytes stay until a lookup finds the footprint stale. *)
let drop_maintenance t uri =
  Result_cache.sweep t.results ~p:(maintained_over uri) (fun _ e ->
      Lru.Set { e with Result_cache.ivm = None })

let handle_load_doc t ~id uri (source : Protocol.doc_source) =
  (match source with
  | Protocol.From_xml xml -> Store.load_xml t.store ~uri xml
  | Protocol.From_path path -> Store.load_file t.store ~uri path
  | Protocol.From_generator { kind; size; seed } ->
    let size =
      match size with
      | Some s -> s
      | None -> (
        match kind with "xmark" -> 0.002 | "hospital" -> 1000.0 | _ -> 100.0)
    in
    Store.load_generated t.store ~uri ~kind ~size ~seed);
  drop_maintenance t uri;
  Protocol.ok_response ~id
    [ ("uri", Json.Str uri);
      ("generation", Json.of_int (Store.generation t.store)) ]

let handle_unload_doc t ~id uri =
  Store.unload t.store uri;
  drop_maintenance t uri;
  Protocol.ok_response ~id
    [ ("uri", Json.Str uri);
      ("generation", Json.of_int (Store.generation t.store)) ]

(* One sweep over the live entries: each one carrying IVM state over
   [uri] is left untouched, maintained in place or, when maintenance
   falls back, dropped so the next run recomputes. *)
let handle_patch_doc t ~id uri op =
  let t0 = Unix.gettimeofday () in
  let delta = Store.patch t.store ~uri op in
  let registry = Store.registry t.store in
  let generation = Store.doc_generation t.store uri in
  let counters hash =
    match Hashtbl.find_opt t.ivm_counters hash with
    | Some c -> c
    | None ->
      let c = { maintained = 0; fallback = 0; delta_nodes = 0; untouched = 0 } in
      Hashtbl.replace t.ivm_counters hash c;
      c
  in
  (* Only the patched document's stamp advances; the rest of the
     footprint keeps its recorded generations, so an unrelated
     concurrent load still invalidates as before. *)
  let restamp footprint =
    List.map (fun (u, g) -> (u, if u = uri then generation else g)) footprint
  in
  let maintained = ref 0 in
  let dropped = ref 0 in
  let rows = ref [] in
  Result_cache.sweep t.results ~p:(maintained_over uri)
    (fun key (e : Result_cache.entry) ->
      let row fields =
        rows :=
          ( key,
            Json.Obj
              (("hash", Json.Str key.Result_cache.hash)
              :: ("config", Json.Str key.Result_cache.config) :: fields) )
          :: !rows
      in
      let c = counters key.Result_cache.hash in
      match Ivm.maintain ~registry ~op delta (Option.get e.Result_cache.ivm) with
      | Ivm.Untouched ->
        incr maintained;
        c.maintained <- c.maintained + 1;
        c.untouched <- c.untouched + 1;
        row [ ("outcome", Json.Str "untouched") ];
        Lru.Set { e with Result_cache.footprint = restamp e.Result_cache.footprint }
      | Ivm.Maintained { state; escaped; delta_count; rounds } ->
        incr maintained;
        c.maintained <- c.maintained + 1;
        c.delta_nodes <- c.delta_nodes + delta_count;
        row
          [ ("outcome", Json.Str "maintained"); ("delta", Json.of_int delta_count);
            ("rounds", Json.of_int rounds) ];
        (* A fresh run over the patched document is at most the
           maintenance's rounds deeper: every new derivation starts
           from a node the old run reached or from a fresh seed node. *)
        let m =
          Option.value e.Result_cache.maintenance
            ~default:{ Result_cache.patches = 0; delta = 0; maintenance_rounds = 0 }
        in
        Lru.Set
          { e with
            Result_cache.escaped;
            maintenance =
              Some
                { Result_cache.patches = m.patches + 1;
                  delta = m.delta + delta_count;
                  maintenance_rounds = m.maintenance_rounds + rounds };
            rounds = e.Result_cache.rounds + rounds;
            footprint = restamp e.Result_cache.footprint;
            ivm = Some state }
      | Ivm.Dropped reason ->
        incr dropped;
        c.fallback <- c.fallback + 1;
        row [ ("outcome", Json.Str "recompute"); ("reason", Json.Str reason) ];
        Lru.Remove);
  let entry_rows = List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) !rows) in
  Protocol.ok_response ~id
    [ ("uri", Json.Str uri);
      ("path", Json.Str (Xdm.Patch.path_of_op op));
      ("generation", Json.of_int (Store.generation t.store));
      ("doc_generation", Json.of_int generation);
      ("inserted", Json.of_int delta.Xdm.Patch.inserted_count);
      ("deleted", Json.of_int (List.length delta.Xdm.Patch.deleted));
      ("maintained", Json.of_int !maintained);
      ("recompute", Json.of_int !dropped);
      ("entries", Json.List entry_rows);
      ("wall_ms", Json.Num ((Unix.gettimeofday () -. t0) *. 1000.0)) ]

(* ------------------------------------------------------------------ *)
(* Durability: snapshot + WAL                                          *)
(* ------------------------------------------------------------------ *)

(* WAL op payloads are exactly the protocol's request objects, so
   replay reuses [Protocol.parse_request] and the handlers above. *)

let op_json_of_load uri (source : Protocol.doc_source) =
  match source with
  | Protocol.From_xml xml ->
    Json.Obj
      [ ("op", Json.Str "load-doc"); ("uri", Json.Str uri);
        ("xml", Json.Str xml) ]
  | Protocol.From_path path ->
    (* never logged: materialized to [From_xml] before the append so
       replay does not depend on the file still being there *)
    Json.Obj
      [ ("op", Json.Str "load-doc"); ("uri", Json.Str uri);
        ("path", Json.Str path) ]
  | Protocol.From_generator { kind; size; seed } ->
    (* generators are deterministic in (kind, size, seed): logging the
       parameters replays the identical tree without materializing it *)
    Json.Obj
      ([ ("op", Json.Str "load-doc"); ("uri", Json.Str uri);
         ("generate", Json.Str kind) ]
      @ (match size with Some s -> [ ("size", Json.Num s) ] | None -> [])
      @ [ ("seed", Json.of_int seed) ])

let op_json_of_unload uri =
  Json.Obj [ ("op", Json.Str "unload-doc"); ("uri", Json.Str uri) ]

let op_json_of_patch uri (op : Xdm.Patch.op) =
  let base action fields =
    Json.Obj
      ([ ("op", Json.Str "patch-doc"); ("uri", Json.Str uri);
         ("action", Json.Str action);
         ("path", Json.Str (Xdm.Patch.path_of_op op)) ]
      @ fields)
  in
  match op with
  | Xdm.Patch.Insert { position; xml; _ } ->
    base "insert"
      [ ("position", Json.Str (Xdm.Patch.string_of_position position));
        ("xml", Json.Str xml) ]
  | Xdm.Patch.Delete _ -> base "delete" []
  | Xdm.Patch.Replace { xml; _ } -> base "replace" [ ("xml", Json.Str xml) ]
  | Xdm.Patch.Set_text { text; _ } ->
    base "set-text" [ ("text", Json.Str text) ]

(* Append-before-apply: [f] only runs once the record is on disk;
   if [f] raises, the record is rewound so replay never applies a
   failed op. Transparent when no state dir is configured. *)
let logged t op f =
  match t.durable with
  | None -> f ()
  | Some d -> Durability.with_op d op f

(* What a snapshot needs to revive a maintained entry: the query source
   (to re-prepare) and the result as portable (uri, preorder rank) node
   identities, to rebuild the item sequence against the reloaded trees.
   The ranks are read from the state's nodes at snapshot time, since a
   patch renumbers the tree it edits. [None] when a result node belongs
   to no registered document. *)
let ivm_row st =
  let rec items acc = function
    | [] -> Some (List.rev acc)
    | n :: rest -> (
      let root = Xdm.Node.root n in
      match Xdm.Node.uri root with
      | Some u ->
        items
          (Json.Obj
             [ ("u", Json.Str u);
               ("r", Json.of_int (n.Xdm.Node.id - root.Xdm.Node.id)) ]
          :: acc)
          rest
      | None -> None)
  in
  Option.map
    (fun items ->
      Json.Obj
        [ ("source", Json.Str (Ivm.source st));
          ("stratified", Json.Bool (Ivm.stratified st));
          ("max_iterations", Json.of_int (Ivm.max_iterations st));
          ("items", Json.List items) ])
    (items [] (Ivm.nodes st))

(* The snapshot's view of the server, evaluated under the durability op
   lock so no document op is in flight: documents (in construction
   order — node ids grow monotonically, so sorting roots by id replays
   registrations in a compatible order), every per-URI generation
   stamp, and the live result-cache rows (with IVM revival info read
   from each entry's current state). *)
let snapshot_state t () =
  let reg = Store.registry t.store in
  let docs =
    Store.uris t.store
    |> List.filter_map (fun u ->
           Option.map
             (fun d -> (d.Xdm.Node.id, u, Xdm.Serializer.to_string d))
             (Xdm.Doc_registry.find ~registry:reg u))
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
  in
  let doc_rows =
    List.map
      (fun (_, u, x) ->
        Json.Obj
          [ ("t", Json.Str "doc"); ("u", Json.Str u); ("x", Json.Str x) ])
      docs
  in
  let cache_rows =
    List.rev_map
      (fun ((key : Result_cache.key), (e : Result_cache.entry)) ->
        let ivm_field =
          (match Option.bind e.Result_cache.ivm ivm_row with
          | None -> []
          | Some row -> [ ("ivm", row) ])
          @
          match e.Result_cache.maintenance with
          | None -> []
          | Some m -> [ ("maintenance", maintenance_json m) ]
        in
        Json.Obj
          ([ ("t", Json.Str "cache");
             ("hash", Json.Str key.Result_cache.hash);
             ("config", Json.Str key.Result_cache.config);
             ("serialized", Json.Raw e.Result_cache.escaped);
             ("engine", Json.Str e.Result_cache.engine);
             ("mode", Json.Str e.Result_cache.mode);
             ("used_delta", Json.of_bool_opt e.Result_cache.used_delta);
             ("nodes_fed", Json.of_int e.Result_cache.nodes_fed);
             ("depth", Json.of_int e.Result_cache.depth);
             ("rounds", Json.of_int e.Result_cache.rounds);
             ("may_diverge", Json.Bool e.Result_cache.may_diverge);
             ("over_envelope", Json.Bool e.Result_cache.over_envelope);
             ("wall_ms", Json.Num e.Result_cache.wall_ms);
             ("footprint",
              Json.List
                (List.map
                   (fun (u, g) ->
                     Json.Obj [ ("u", Json.Str u); ("g", Json.of_int g) ])
                   e.Result_cache.footprint));
             ("semiring",
              (match e.Result_cache.semiring with
              | Some s -> Json.Str s
              | None -> Json.Null));
             ("annotations",
              Json.List
                (List.map
                   (fun (x, a) ->
                     Json.Obj [ ("x", Json.Str x); ("a", Json.Str a) ])
                   e.Result_cache.annotations)) ]
          @ ivm_field))
      (Result_cache.bindings t.results)
  in
  let meta =
    [ ("generation", Json.of_int (Store.generation t.store));
      ("gens",
       Json.List
         (List.map
            (fun (u, g) ->
              Json.Obj [ ("u", Json.Str u); ("g", Json.of_int g) ])
            (Xdm.Doc_registry.generations ~registry:reg ()))) ]
  in
  (meta, doc_rows @ List.rev cache_rows)

let force_snapshot t =
  match t.durable with
  | None -> Error "snapshot requires a server started with --state-dir"
  | Some d -> Durability.snapshot d ~state:(snapshot_state t)

let maybe_snapshot t =
  match t.durable with
  | Some d when Durability.due d -> ignore (force_snapshot t)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

(* Invert the preorder rank: nodes of [root] as an array indexed by
   rank (preorder, attributes after their element). *)
let nodes_by_rank root =
  let acc = ref [] in
  let rec walk n =
    acc := n :: !acc;
    List.iter walk (Xdm.Node.attributes n);
    List.iter walk (Xdm.Node.children n)
  in
  walk root;
  Array.of_list (List.rev !acc)

(* Best-effort revival of one maintained entry's IVM state: rebuild the
   item sequence from (uri, rank) identities against the reloaded trees,
   re-prepare the source and re-adopt. The snapshot is outside input
   (and older servers wrote rows whose ranks went stale after a patch),
   so the rebuilt nodes must serialize to the row's cached bytes
   (compared escaped: escaping is injective, so no weaker a check). Any
   mismatch (document gone, rank out of range, other bytes, program no
   longer eligible) degrades to "cached result without maintenance" —
   correct, just slower on the next patch. *)
let revive_ivm t ~escaped iv =
  match
    ( Json.str_opt (Json.member "source" iv),
      Json.bool_opt (Json.member "stratified" iv),
      Json.int_opt (Json.member "max_iterations" iv),
      Json.member "items" iv )
  with
  | (Some source, Some stratified, Some max_iterations, Json.List rows) ->
    let registry = Store.registry t.store in
    let by_root : (string, Xdm.Node.t array) Hashtbl.t = Hashtbl.create 4 in
    let result =
      List.map
        (fun r ->
          match
            ( Json.str_opt (Json.member "u" r),
              Json.int_opt (Json.member "r" r) )
          with
          | (Some u, Some rank) ->
            let arr =
              match Hashtbl.find_opt by_root u with
              | Some arr -> arr
              | None -> (
                match Xdm.Doc_registry.find ~registry u with
                | None -> raise Exit
                | Some root ->
                  let arr = nodes_by_rank root in
                  Hashtbl.replace by_root u arr;
                  arr)
            in
            if rank >= 0 && rank < Array.length arr then Xdm.Item.N arr.(rank)
            else raise Exit
          | _ -> raise Exit)
        rows
    in
    if Xdm.Serializer.seq_to_json result <> escaped then None
    else
      let (prepared, _) = get_prepared t ~stratified ~max_iterations source in
      Ivm.adopt ~registry ~source ~program:prepared.Prepared.program
        ~stratified ~max_iterations result
  | _ -> None

let restore_cache_row t row =
  match
    ( Json.str_opt (Json.member "hash" row),
      Json.str_opt (Json.member "config" row),
      Json.str_opt (Json.member "serialized" row) )
  with
  | (Some hash, Some config, Some serialized) ->
    let escaped = Json.to_string (Json.Str serialized) in
    let pairs name fa fb =
      match Json.member name row with
      | Json.List l ->
        List.filter_map
          (fun r ->
            match (fa (Json.member "u" r), fb (Json.member "g" r)) with
            | (Some a, Some b) -> Some (a, b)
            | _ -> None)
          l
      | _ -> []
    in
    let annotations =
      match Json.member "annotations" row with
      | Json.List l ->
        List.filter_map
          (fun r ->
            match
              ( Json.str_opt (Json.member "x" r),
                Json.str_opt (Json.member "a" r) )
            with
            | (Some x, Some a) -> Some (x, a)
            | _ -> None)
          l
      | _ -> []
    in
    let footprint = pairs "footprint" Json.str_opt Json.int_opt in
    let key = { Result_cache.hash; config } in
    (* A row written before entries recorded what they resolved to has
       a config naming the engine and mode that ran
       ([engine:mode:stratified]); it lacks the admission facts, so it
       is only ever used after admission has run. *)
    let config_part i default =
      match List.nth_opt (String.split_on_char ':' config) i with
      | Some s -> s
      | None -> default
    in
    let str name ~default =
      Option.value ~default (Json.str_opt (Json.member name row))
    in
    let int name ~default =
      Option.value ~default (Json.int_opt (Json.member name row))
    in
    let flag name =
      Option.value ~default:true (Json.bool_opt (Json.member name row))
    in
    let depth = int "depth" ~default:0 in
    let ivm =
      match Json.member "ivm" row with
      | Json.Obj _ as iv -> (
        try revive_ivm t ~escaped iv with _ -> None)
      | _ -> None
    in
    Result_cache.put t.results key
      { Result_cache.escaped;
        engine = str "engine" ~default:(config_part 0 "interp");
        mode = str "mode" ~default:(config_part 1 "auto");
        used_delta = Json.bool_opt (Json.member "used_delta" row);
        nodes_fed = int "nodes_fed" ~default:0;
        depth;
        rounds = int "rounds" ~default:depth;
        wall_ms =
          Option.value ~default:0.0
            (Json.num_opt (Json.member "wall_ms" row));
        footprint;
        semiring = Json.str_opt (Json.member "semiring" row);
        annotations;
        may_diverge = flag "may_diverge";
        over_envelope = flag "over_envelope"; ivm;
        maintenance = maintenance_of_json (Json.member "maintenance" row) };
    Some (ivm <> None)
  | _ -> None

(* Replay one WAL tail op through the live handlers (durability is
   still unset, so nothing is re-logged). A replayed op that fails
   failed identically before the crash — log-rewind keeps failed ops
   out of the WAL, so this is purely defensive. *)
let apply_recovered_op t op =
  match Protocol.parse_request op with
  | Ok (Protocol.Load_doc { uri; source }) -> (
    try
      ignore (handle_load_doc t ~id:Json.Null uri source);
      true
    with _ -> false)
  | Ok (Protocol.Unload_doc { uri }) ->
    ignore (handle_unload_doc t ~id:Json.Null uri);
    true
  | Ok (Protocol.Patch_doc { uri; op }) -> (
    try
      ignore (handle_patch_doc t ~id:Json.Null uri op);
      true
    with _ -> false)
  | Ok _ | Error _ -> false

let recover_state t ~dir ~threshold =
  let r = Durability.recover ~dir in
  let docs = ref 0 in
  List.iter
    (fun (uri, xml) ->
      try
        Store.load_xml t.store ~uri xml;
        incr docs
      with Store.Error _ -> ())
    r.Durability.rec_docs;
  Xdm.Doc_registry.restore
    ~registry:(Store.registry t.store)
    ~gens:r.Durability.rec_gens ~generation:r.Durability.rec_generation ();
  let cache = ref 0 and ivm = ref 0 in
  List.iter
    (fun row ->
      match restore_cache_row t row with
      | Some revived ->
        incr cache;
        if revived then incr ivm
      | None -> ())
    r.Durability.rec_cache;
  let tail = ref 0 in
  List.iter
    (fun (_, op) -> if apply_recovered_op t op then incr tail)
    r.Durability.rec_tail;
  t.recovered_stats <-
    [ ("docs", Json.of_int !docs);
      ("tail_ops", Json.of_int !tail);
      ("cache_entries", Json.of_int !cache);
      ("ivm_entries", Json.of_int !ivm);
      ("truncated_bytes", Json.of_int r.Durability.rec_truncated_bytes);
      ("diagnostic",
       (match r.Durability.rec_diagnostic with
       | Some d -> Json.Str d
       | None -> Json.Null)) ];
  t.durable <- Some (Durability.start ~dir ~threshold r)

let create ?(config = default_config) ?store () =
  let t =
    match store with
    | Some store -> create_raw ~config ~store ()
    | None -> create_raw ~config ()
  in
  (match config.state_dir with
  | None -> ()
  | Some dir ->
    recover_state t ~dir ~threshold:config.snapshot_threshold);
  t

(* Result-cache entries that carry maintenance state. *)
let ivm_entries t =
  List.length
    (Result_cache.bindings t.results ~p:(fun e -> e.Result_cache.ivm <> None))

(* Per-query [(hash, counters)], sorted by hash. *)
let ivm_counter_rows t =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun hash c acc -> (hash, c) :: acc) t.ivm_counters [])

let cache_stats_json ~hits ~misses ~size ~capacity =
  Json.Obj
    [ ("hits", Json.of_int hits); ("misses", Json.of_int misses);
      ("size", Json.of_int size); ("capacity", Json.of_int capacity) ]

(* Process-wide set-kernel totals (merge/bitmap/name-index work done by
   every fixpoint round served so far), as label/value rows shared by
   the JSON and Prometheus expositions. *)
let kernel_counter_rows () =
  let c = Xdm.Counters.snapshot () in
  [ ("merges", c.Xdm.Counters.merges);
    ("merged_items", c.Xdm.Counters.merged_items);
    ("fallback_sorts", c.Xdm.Counters.fallback_sorts);
    ("bitmap_tests", c.Xdm.Counters.bitmap_tests);
    ("bitmap_hits", c.Xdm.Counters.bitmap_hits);
    ("index_steps", c.Xdm.Counters.index_steps);
    ("index_nodes", c.Xdm.Counters.index_nodes);
    ("value_probes", c.Xdm.Counters.value_probes);
    ("col_batches", c.Xdm.Counters.col_batches);
    ("col_rows", c.Xdm.Counters.col_rows);
    ("col_boxed_rows", c.Xdm.Counters.col_boxed_rows) ]

(* Prometheus text exposition of the same counters the JSON stats
   report: cache hit/miss/size, registry generation, uptime, and the
   per-query execution aggregates from [Metrics]. Emitted by workers
   (scraped directly or relayed by the coordinator). *)
let prometheus_stats t =
  let buf = Buffer.create 1024 in
  let gauge = Metrics.gauge buf in
  let counter_family name samples =
    Metrics.family buf Metrics.Counter name
      (List.map (fun (labels, n) -> (labels, string_of_int n)) samples)
  in
  gauge "fixq_uptime_seconds"
    (Printf.sprintf "%.3f" (Unix.gettimeofday () -. t.started_at));
  gauge "fixq_store_generation" (string_of_int (Store.generation t.store));
  gauge "fixq_documents" (string_of_int (List.length (Store.uris t.store)));
  (match t.durable with
  | None -> ()
  | Some d ->
    Metrics.counter buf "fixq_wal_appends_total" (Durability.appends d);
    Metrics.counter buf "fixq_snapshots_total" (Durability.snapshots d);
    gauge "fixq_wal_bytes" (string_of_int (Durability.wal_bytes d));
    gauge "fixq_wal_last_seq" (string_of_int (Durability.last_seq d));
    let stat name =
      match List.assoc_opt name t.recovered_stats with
      | Some (Json.Num n) -> int_of_float n
      | _ -> 0
    in
    gauge "fixq_recovery_replayed_ops" (string_of_int (stat "tail_ops"));
    gauge "fixq_recovery_truncated_bytes"
      (string_of_int (stat "truncated_bytes")));
  counter_family "fixq_cache_hits_total"
    [ ("cache=\"prepared\"", Lru.hits t.prepared);
      ("cache=\"results\"", Result_cache.hits t.results) ];
  counter_family "fixq_cache_misses_total"
    [ ("cache=\"prepared\"", Lru.misses t.prepared);
      ("cache=\"results\"", Result_cache.misses t.results) ];
  Metrics.family buf Metrics.Gauge "fixq_cache_entries"
    [ ("cache=\"prepared\"", string_of_int (Lru.length t.prepared));
      ("cache=\"results\"", string_of_int (Result_cache.length t.results)) ];
  counter_family "fixq_kernel_ops_total"
    (List.map
       (fun (k, v) -> (Printf.sprintf "kernel=%S" k, v))
       (kernel_counter_rows ()));
  gauge "fixq_inflight_requests"
    (string_of_int (Governor.inflight t.governor));
  counter_family "fixq_degraded_requests_total"
    (List.map
       (fun (k, v) -> (Printf.sprintf "reason=%S" k, v))
       (Governor.counter_rows t.governor));
  (match analysis_counter_rows t with
  | [] -> ()
  | rows ->
    let is_semiring k =
      String.length k > 9 && String.sub k 0 9 = "semiring:"
    in
    counter_family "fixq_prepared_divergence_total"
      (List.filter_map
         (fun (k, v) ->
           if k = "refused" || k = "refused-cost" || is_semiring k then None
           else Some (Printf.sprintf "class=%S" k, v))
         rows);
    (match List.filter (fun (k, _) -> is_semiring k) rows with
    | [] -> ()
    | semi ->
      counter_family "fixq_semiring_queries_total"
        (List.map
           (fun (k, v) ->
             ( Printf.sprintf "kind=%S"
                 (String.sub k 9 (String.length k - 9)),
               v ))
           semi));
    match
      List.filter_map
        (fun (k, reason) ->
          Option.map
            (fun n -> (Printf.sprintf "reason=%S" reason, n))
            (List.assoc_opt k rows))
        [ ("refused", "may-diverge"); ("refused-cost", "cost") ]
    with
    | [] -> ()
    | refused -> counter_family "fixq_refused_queries_total" refused);
  gauge "fixq_ivm_entries" (string_of_int (ivm_entries t));
  (match ivm_counter_rows t with
  | [] -> ()
  | rows ->
    let family name field =
      counter_family name
        (List.map (fun (h, c) -> (Printf.sprintf "query=%S" h, field c)) rows)
    in
    family "fixq_ivm_maintained_total" (fun c -> c.maintained);
    family "fixq_ivm_fallback_recompute_total" (fun c -> c.fallback);
    family "fixq_ivm_delta_nodes_total" (fun c -> c.delta_nodes);
    family "fixq_ivm_untouched_total" (fun c -> c.untouched));
  Buffer.add_string buf (Metrics.to_prometheus ~prefix:"fixq" t.metrics);
  Buffer.contents buf

let durability_json t =
  match t.durable with
  | None -> Json.Null
  | Some d ->
    Json.Obj
      [ ("state_dir", Json.Str (Option.value ~default:"" t.config.state_dir));
        ("last_seq", Json.of_int (Durability.last_seq d));
        ("wal_bytes", Json.of_int (Durability.wal_bytes d));
        ("wal_appends", Json.of_int (Durability.appends d));
        ("snapshots", Json.of_int (Durability.snapshots d));
        ("ops_since_snapshot",
         Json.of_int (Durability.ops_since_snapshot d));
        ("recovered", Json.Obj t.recovered_stats) ]

let handle_stats t ~id =
  Protocol.ok_response ~id
    [ ("stats",
       Json.Obj
         [ ("generation", Json.of_int (Store.generation t.store));
           ("durability", durability_json t);
           ("documents",
            Json.List
              (List.map (fun u -> Json.Str u) (Store.uris t.store)));
           ("prepared",
            cache_stats_json ~hits:(Lru.hits t.prepared)
              ~misses:(Lru.misses t.prepared) ~size:(Lru.length t.prepared)
              ~capacity:(Lru.capacity t.prepared));
           ("results",
            cache_stats_json ~hits:(Result_cache.hits t.results)
              ~misses:(Result_cache.misses t.results)
              ~size:(Result_cache.length t.results)
              ~capacity:t.config.result_capacity);
           ("queries", Metrics.to_json t.metrics);
           ("kernels",
            Json.Obj
              (List.map
                 (fun (k, v) -> (k, Json.of_int v))
                 (kernel_counter_rows ())));
           ("governor",
            Json.Obj
              (("inflight", Json.of_int (Governor.inflight t.governor))
              :: List.map
                   (fun (k, v) -> (k, Json.of_int v))
                   (Governor.counter_rows t.governor)));
           ("analysis",
            Json.Obj
              (List.map
                 (fun (k, v) -> (k, Json.of_int v))
                 (analysis_counter_rows t)));
           ("ivm",
            (let rows = ivm_counter_rows t in
             let total field = List.fold_left (fun n (_, c) -> n + field c) 0 rows in
             Json.Obj
               [ ("entries", Json.of_int (ivm_entries t));
                 ("maintained_total", Json.of_int (total (fun c -> c.maintained)));
                 ("fallback_recompute_total", Json.of_int (total (fun c -> c.fallback)));
                 ("delta_nodes_total", Json.of_int (total (fun c -> c.delta_nodes)));
                 ("untouched_total", Json.of_int (total (fun c -> c.untouched)));
                 ("queries",
                  Json.Obj
                    (List.map
                       (fun (hash, c) ->
                         ( hash,
                           Json.Obj
                             [ ("maintained", Json.of_int c.maintained);
                               ("fallback_recompute", Json.of_int c.fallback);
                               ("delta_nodes", Json.of_int c.delta_nodes) ] ))
                       rows)) ]));
           ("uptime_ms",
            Json.Num ((Unix.gettimeofday () -. t.started_at) *. 1000.0)) ]) ]

(* Chaos faults injected at the request boundary become the same
   degradations the governor produces naturally. *)
exception Chaos_fault of string

let chaos_handle_point () =
  match Fixq_chaos.check "server.handle" with
  | None -> ()
  | Some Fixq_chaos.Kill -> Fixq_chaos.kill_self ()
  | Some (Fixq_chaos.Delay s) -> Fixq_chaos.sleep s
  | Some Fixq_chaos.Oom -> raise Out_of_memory
  | Some Fixq_chaos.Drop -> raise (Chaos_fault "injected fault: drop")
  | Some Fixq_chaos.Truncate -> raise (Chaos_fault "injected fault: truncate")

let handle_with t out request =
  let id = Protocol.request_id request in
  match Protocol.parse_request request with
  | Error msg -> (Protocol.error_response ~id msg, false)
  | Ok req -> (
    (* Only query work is subject to admission control: ping, stats and
       document ops must keep answering on a loaded server. *)
    let admitted =
      match req with
      | Protocol.Run _ | Protocol.Prepare _ | Protocol.Check _
      | Protocol.Plan _ | Protocol.Explain _ ->
        true
      | _ -> false
    in
    (* Document ops edit trees in place, so they run alone; everything
       else reads and shares the lock. *)
    let hold =
      match req with
      | Protocol.Load_doc _ | Protocol.Unload_doc _ | Protocol.Patch_doc _ ->
        Rwlock.write
      | _ -> Rwlock.read
    in
    let doc_op op f =
      let resp = logged t op f in
      maybe_snapshot t;
      (resp, false)
    in
    try
      if admitted then Governor.admit t.governor;
      Fun.protect
        ~finally:(fun () -> if admitted then Governor.release t.governor)
        (fun () ->
          hold t.docs_lock @@ fun () ->
          chaos_handle_point ();
          match req with
          | Protocol.Run r -> (handle_run t ~out ~id r, false)
          | Protocol.Prepare { query; stratified } ->
            (handle_prepare t ~id query stratified, false)
          | Protocol.Check { query; stratified } ->
            (handle_check t ~id query stratified, false)
          | Protocol.Plan { query; stratified } ->
            (handle_plan t ~id query stratified, false)
          | Protocol.Explain { query; stratified } ->
            (handle_explain t ~id query stratified, false)
          | Protocol.Load_doc { uri; source } ->
            (* materialize file sources before logging, so the WAL
               replays without the file *)
            let source =
              match source with
              | Protocol.From_path path when t.durable <> None ->
                Protocol.From_xml (Store.read_file path)
              | s -> s
            in
            doc_op (op_json_of_load uri source) (fun () ->
                handle_load_doc t ~id uri source)
          | Protocol.Unload_doc { uri } ->
            doc_op (op_json_of_unload uri) (fun () ->
                handle_unload_doc t ~id uri)
          | Protocol.Patch_doc { uri; op } ->
            doc_op (op_json_of_patch uri op) (fun () ->
                handle_patch_doc t ~id uri op)
          | Protocol.Snapshot -> (
            match force_snapshot t with
            | Ok () ->
              let d = Option.get t.durable in
              ( Protocol.ok_response ~id
                  [ ("snapshot", Json.Bool true);
                    ("last_seq", Json.of_int (Durability.last_seq d));
                    ("wal_bytes", Json.of_int (Durability.wal_bytes d)) ],
                false )
            | Error msg -> (Protocol.error_response ~id msg, false))
          | Protocol.Dump_doc { uri } -> (
            match
              Xdm.Doc_registry.find ~registry:(Store.registry t.store) uri
            with
            | Some root ->
              ( Protocol.ok_response ~id
                  [ ("uri", Json.Str uri);
                    ("doc_generation",
                     Json.of_int (Store.doc_generation t.store uri));
                    ("xml", Json.Str (Xdm.Serializer.to_string root)) ],
                false )
            | None ->
              ( Protocol.error_response ~id
                  (Printf.sprintf "no document loaded under %S" uri),
                false ))
          | Protocol.Add_worker | Protocol.Remove_worker _ | Protocol.Drain _
            ->
            ( Protocol.error_response ~id
                "cluster-only op (send it to a fixq cluster coordinator)",
              false )
          | Protocol.Stats Protocol.Stats_json -> (handle_stats t ~id, false)
          | Protocol.Stats Protocol.Stats_prometheus ->
            ( Protocol.ok_response ~id
                [ ("prometheus", Json.Str (prometheus_stats t)) ],
              false )
          | Protocol.Ping ->
            (Protocol.ok_response ~id [ ("pong", Json.Bool true) ], false)
          | Protocol.Shutdown ->
            (* flush the WAL and install a final snapshot so a clean
               restart replays nothing *)
            (match t.durable with
            | Some d ->
              ignore (force_snapshot t);
              t.durable <- None;
              Durability.close d
            | None -> ());
            (Protocol.ok_response ~id [ ("shutdown", Json.Bool true) ], true))
    with
    | Prepared.Rejected { message; diagnostics } ->
      ( Protocol.error_response ~id
          ~extra:
            [ ("diagnostics",
               Json.List (List.map Protocol.diag_json diagnostics)) ]
          message,
        false )
    | Store.Error msg | Fixq.Error msg | Chaos_fault msg ->
      (Protocol.error_response ~id msg, false)
    | Fixq_durable.Wal.Append_failed msg ->
      (* the op was refused before any mutation: store and log agree *)
      (Protocol.error_response ~id ("durability: " ^ msg), false)
    | Governor.Shed { retry_after_ms; reason } ->
      ( Protocol.error_response ~id
          ~extra:[ ("retry_after_ms", Json.of_int retry_after_ms) ]
          ("overloaded: " ^ reason),
        false )
    | Out_of_memory ->
      (* The run was aborted between fixpoint rounds (memory budget) or
         by a failed allocation. Nothing was cached: both caches are
         only written after a fully successful computation, so the
         failed request leaves no poisoned entry behind. *)
      Governor.note_oom t.governor;
      ( Protocol.error_response ~id
          "out of memory: request aborted (memory budget exceeded)",
        false )
    | Stack_overflow ->
      Governor.note_stack t.governor;
      ( Protocol.error_response ~id
          "stack overflow: request aborted (recursion too deep)",
        false )
    | exn ->
      (* A request must never take the server down. *)
      (Protocol.error_response ~id
         ("internal error: " ^ Printexc.to_string exn),
       false))

(* [out] is the buffer a run's answer is written into: the
   connection's, or a fresh one for an in-process call. *)
let respond_with t out line =
  match Json.parse line with
  | request -> handle_with t out request
  | exception Json.Parse_error msg ->
    (Protocol.error_response ~id:Json.Null msg, false)

let handle t request = handle_with t (Buffer.create 256) request
let respond t line = respond_with t (Buffer.create 256) line

let handle_line t line =
  let (response, shutdown) = respond t line in
  (Json.to_string response, shutdown)

(* ------------------------------------------------------------------ *)
(* Transports                                                          *)
(* ------------------------------------------------------------------ *)

(* The transports are generic over the request handler so that the
   single-process server and the cluster coordinator (whose handler
   fans out to worker processes) share the exact same pipe/socket
   plumbing. [handle] maps one request line to (response, stop). *)

(* Does [line] contain [s]? *)
let mentions line s =
  let rec from i =
    match String.index_from_opt line i s.[0] with
    | None -> false
    | Some j ->
      (j + String.length s <= String.length line
      && String.sub line j (String.length s) = s)
      || from (j + 1)
  in
  from 0

(* Only a line that can spell the op, literally or escaped, is parsed
   before it runs. *)
let is_shutdown_line line =
  (mentions line "shutdown" || mentions line "\\u")
  &&
  match Json.parse line with
  | j -> Json.str_opt (Json.member "op" j) = Some "shutdown"
  | exception Json.Parse_error _ -> false

(* The front door every stream's requests pass through: [slots]
   requests execute at once, each holding a slot only while its handler
   runs. A shutdown line marks the door stopping before it runs, takes
   every slot (so the requests already executing finish first) and runs
   alone; no request executes after it on any stream, so no
   acknowledged write can follow the final snapshot. *)
type door = {
  slots : int;
  free : Semaphore.Counting.t;
  stopping : bool Atomic.t;
}

let door slots =
  let slots = max 1 slots in
  { slots; free = Semaphore.Counting.make slots; stopping = Atomic.make false }

(* Run one line through [door]: [None] when it did not run because the
   door is stopping. A shutdown line always answers stop. *)
let enter door ~handle line =
  let take n = for _ = 1 to n do Semaphore.Counting.acquire door.free done in
  let give n = for _ = 1 to n do Semaphore.Counting.release door.free done in
  let shutdown = is_shutdown_line line in
  let n = if shutdown then door.slots else 1 in
  if shutdown && not (Atomic.compare_and_set door.stopping false true) then None
  else begin
    take n;
    if (not shutdown) && Atomic.get door.stopping then (give n; None)
    else
      Fun.protect ~finally:(fun () -> give n) (fun () ->
          let (response, stop) = handle line in
          Some (response, stop || shutdown))
  end

(* A stream that dies mid-frame or ships an oversized frame gets a
   well-formed error response (where the transport still accepts one)
   and otherwise ends the connection cleanly — never a bare
   [End_of_file] out of the serve loop, and never a truncated frame
   handed to the handler as if it were complete. *)
let frame_error kind =
  Protocol.error_response ~id:Json.Null
    (match kind with
    | `Truncated -> "protocol error: stream ended mid-frame"
    | `Oversized ->
      Printf.sprintf "protocol error: frame larger than %d bytes"
        Frame.default_max_len)

(* A connection's result buffer that grew past this is released after
   its response instead of being kept for the next. *)
let max_kept_buffer = 1 lsl 20

(* The one line loop: answer [ic]'s requests on [oc] in order until
   EOF, a failed write, a stop or a stopping door. True when it ended
   on a stop or a stopping door. Each response is printed straight
   into [oc], never built as one string first. [handle] gets the
   stream's own buffer, which a response may view until it is
   written: one per connection, so never shared between threads. *)
let serve_stream door ~handle ic oc =
  let out = Buffer.create 1024 in
  let write_line j =
    match
      Json.output oc j;
      output_char oc '\n';
      flush oc
    with
    | () ->
      if Buffer.length out > max_kept_buffer then Buffer.reset out;
      true
    | exception Sys_error _ -> false
  in
  let rec loop () =
    match Frame.read ic with
    | exception Sys_error _ -> false
    | `Eof -> false
    | `Truncated _ ->
      ignore (write_line (frame_error `Truncated));
      false
    | `Oversized -> write_line (frame_error `Oversized) && loop ()
    | `Line line when String.trim line = "" -> loop ()
    | `Line line -> (
      match enter door ~handle:(handle out) line with
      | None -> true
      | Some (response, true) ->
        ignore (write_line response);
        true
      | Some (response, false) -> write_line response && loop ())
  in
  loop ()

let serve_pipe_with ~handle ic oc =
  ignore (serve_stream (door 1) ~handle:(fun _ -> handle) ic oc)

exception Socket_in_use of string

(* Is there a live server behind this socket path? A stale path left by
   a crashed process refuses the connection; a healthy one accepts. *)
let socket_alive path =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      match Unix.connect sock (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false)

(* Open connections a socket serves at once; at the cap the accept
   loop waits for one to close. *)
let max_connections = 256

let listen_socket ~handle ~workers ~path =
  (* a client hanging up mid-response must not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  if Sys.file_exists path then begin
    (* refuse to clobber another live server's socket; only unlink a
       stale leftover that nothing answers behind *)
    if socket_alive path then raise (Socket_in_use path);
    Unix.unlink path
  end;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* Bind and listen under a temporary name beside [path], then rename
     it into place: a client that sees [path] can connect. A path too
     long to take the suffix is bound in place. *)
  let tmp = Printf.sprintf "%s.%d~" path (Unix.getpid ()) in
  (try Unix.unlink tmp with Unix.Unix_error _ -> ());
  (match Unix.bind sock (Unix.ADDR_UNIX tmp) with
  | exception Unix.Unix_error (Unix.ENAMETOOLONG, _, _) ->
    Unix.bind sock (Unix.ADDR_UNIX path);
    Unix.listen sock 64
  | () -> (
    try
      Unix.listen sock 64;
      Unix.rename tmp path
    with e ->
      (try Unix.unlink tmp with Unix.Unix_error _ -> ());
      raise e));
  let door = door workers in
  let room = Semaphore.Counting.make max_connections in
  (* open connections: one leaves the table before its descriptor
     closes, so hanging up on the table never hits a reused descriptor *)
  let conns = Hashtbl.create 16 and conns_lock = Mutex.create () in
  let listening = ref true in
  let serve_conn fd =
    let oc = Unix.out_channel_of_descr fd in
    let stopped =
      try serve_stream door ~handle (Unix.in_channel_of_descr fd) oc
      with _ -> false
    in
    Mutex.protect conns_lock (fun () ->
        Hashtbl.remove conns fd;
        (* wake the accept loop, unless it has closed the listener *)
        if stopped && !listening then
          try Unix.shutdown sock Unix.SHUTDOWN_RECEIVE
          with Unix.Unix_error _ -> ());
    (* closing the channel, not only the descriptor, keeps the bytes of
       a failed write from being flushed at exit into a reused one *)
    close_out_noerr oc;
    Semaphore.Counting.release room
  in
  (try
     while true do
       Semaphore.Counting.acquire room;
       let (fd, _) = Unix.accept sock in
       Mutex.protect conns_lock (fun () -> Hashtbl.replace conns fd ());
       ignore (Thread.create serve_conn fd)
     done
   with Unix.Unix_error _ | Sys_error _ -> ());
  (* no request runs again: hang up on every client still connected
     instead of waiting for it *)
  Mutex.protect conns_lock (fun () ->
      listening := false;
      (try Unix.close sock with Unix.Unix_error _ -> ());
      Hashtbl.iter
        (fun fd () ->
          try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
        conns);
  if Sys.file_exists path then (try Unix.unlink path with Sys_error _ -> ())

let serve_socket_with ~handle ?(workers = 1) ~path () =
  listen_socket ~handle:(fun _ -> handle) ~workers ~path

let serve_pipe t ic oc =
  ignore (serve_stream (door 1) ~handle:(respond_with t) ic oc)

let serve_socket t ~path =
  listen_socket ~handle:(respond_with t) ~workers:t.config.workers ~path
