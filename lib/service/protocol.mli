(** The newline-delimited JSON protocol of [fixq serve] (and, one level
    up, of the [fixq cluster] coordinator, which speaks the same wire
    format to clients and forwards to workers).

    One request object per line, one response object per line. Every
    request carries an ["op"] discriminator; an optional ["id"] member
    of any JSON type is echoed verbatim in the response. Each stream
    is answered in request order.

    Ops:
    - [{"op":"run","query":Q}] — evaluate. Optional: ["engine"]
      ("interp"|"algebra"|"sql", default "interp"), ["mode"]
      ("auto"|"naive"|"delta"; "auto" uses the mode pinned at
      preparation), ["stratified"] (bool),
      ["max_iterations"] (int), ["timeout_ms"] (number), ["cache"]
      (bool, default true — set false to bypass the result cache). A
      run carrying the removed ["partition"] member (seed slicing) is
      refused with an error naming it.
    - [{"op":"prepare","query":Q}] — parse, statically check, compute
      both distributivity verdicts, pin the fixpoint mode and compile
      the plan into the prepared-query LRU {e without executing}: cache
      warming for coordinators and deploy scripts.
    - [{"op":"check","query":Q}] — distributivity verdicts and pinned
      modes, without running.
    - [{"op":"plan","query":Q}] — ASCII algebra plan of the first IFP,
      annotated with per-operator cardinality intervals from the loaded
      documents' synopses.
    - [{"op":"explain","query":Q}] — the static cost report: per-operator
      cardinality estimates, the certified fixpoint round bound (when
      derivable) and the per-engine cost estimates.
    - [{"op":"load-doc","uri":U, ...}] — register a document; the
      source is one of ["xml"] (inline), ["path"] (file), or
      ["generate"] ("xmark"|"curriculum"|"play"|"hospital", with
      optional ["size"], ["seed"]).
    - [{"op":"unload-doc","uri":U}]
    - [{"op":"patch-doc","uri":U,"action":A,"path":P, ...}] — apply a
      structural edit to the document registered under [U] at element
      path [P] ([/site/people[2]] — child steps, 1-based selectors).
      [A] is ["insert"] (with ["xml"], optional ["position"]:
      "into"|"into-first"|"into-last"|"before"|"after", default
      into-last), ["delete"], ["replace"] (with ["xml"]), or
      ["set-text"] (with ["text"]). An eligible cached fixpoint result
      the edit cannot reach stays cached, and every other one over the
      document is dropped (see {!Fixq_ivm.Ivm}); the response reports
      ∆ sizes and each entry's outcome, [untouched] or [recompute].
    - [{"op":"snapshot"}] — force a durability snapshot (when the server
      runs with [--state-dir]); the cluster coordinator instead compacts
      its per-worker doc-line histories.
    - [{"op":"dump-doc","uri":U}] — the serialized bytes of the document
      registered under [U].
    - [{"op":"add-worker"}], [{"op":"remove-worker","worker":W}],
      [{"op":"drain","worker":W}] — cluster-only topology ops; a plain
      server answers with an error.
    - [{"op":"stats"}] — cache counters, per-query latency aggregates.
      With ["format":"prometheus"], the response instead carries a
      ["prometheus"] member with the text exposition of the same
      counters, ready to serve to a scraper.
    - [{"op":"ping"}]
    - [{"op":"shutdown"}] — answer, then stop the server.

    Responses: [{"ok":true, ...}] or
    [{"ok":false,"id":…,"error":"…"}]. *)

type doc_source =
  | From_xml of string
  | From_path of string
  | From_generator of { kind : string; size : float option; seed : int }

type run_params = {
  query : string;
  engine : [ `Interp | `Algebra | `Sql ];
  mode : [ `Pinned | `Naive | `Delta ];
      (** [`Pinned] = the preparation-time decision *)
  stratified : bool option;  (** [None] = server default *)
  max_iterations : int option;
  timeout_ms : float option;
  cache : bool;  (** [false] bypasses the result cache *)
}

type stats_format = Stats_json | Stats_prometheus

type request =
  | Run of run_params
  | Prepare of { query : string; stratified : bool option }
  | Check of { query : string; stratified : bool option }
  | Plan of { query : string; stratified : bool option }
  | Explain of { query : string; stratified : bool option }
      (** Static cost & cardinality report ({!Fixq_cost.Estimate}). *)
  | Load_doc of { uri : string; source : doc_source }
  | Unload_doc of { uri : string }
  | Patch_doc of { uri : string; op : Fixq_xdm.Patch.op }
  | Snapshot
      (** Force a durability snapshot ([fixq serve --state-dir]); on the
          cluster coordinator, compact all per-worker doc histories. *)
  | Dump_doc of { uri : string }
      (** Serialized bytes of a registered document — the snapshot-based
          transfer primitive behind cluster rebalancing. *)
  | Add_worker  (** Cluster only: spin up one worker and rebalance onto it. *)
  | Remove_worker of { name : string }
      (** Cluster only: drain, rebalance off, then retire the worker. *)
  | Drain of { name : string }
      (** Cluster only: move keys off the worker but keep it running. *)
  | Stats of stats_format
  | Ping
  | Shutdown

(** Parse a request object. [Error msg] on unknown ops, missing or
    ill-typed members. *)
val parse_request : Json.t -> (request, string) result

(** Parse the CLI convenience syntax
    ["URI ACTION [PAYLOAD] at /PATH [POSITION]"], e.g.
    ["auction.xml insert <bidder/> at /site/people into-first"] or
    ["auction.xml delete at /site/regions"]. The payload/path boundary
    is the last [" at "]. Returns the URI and the structured op. *)
val parse_patch_spec : string -> (string * Fixq_xdm.Patch.op, string) result

(** The ["id"] member ([Null] when absent). *)
val request_id : Json.t -> Json.t

(** [{"ok":false,"id":…,"error":msg} ∪ extra] — ["id"] omitted when
    [Null]. [extra] carries structured degradation detail, e.g. the
    governor's [("retry_after_ms", …)] hint on shed responses. *)
val error_response : ?extra:(string * Json.t) list -> id:Json.t -> string -> Json.t

(** [{"ok":true,"id":…} ∪ fields] — ["id"] omitted when [Null]. *)
val ok_response : id:Json.t -> (string * Json.t) list -> Json.t

(** One diagnostic as JSON: [{"severity","code","line","col","context",
    "message"}], with line and col [0] when unlocated. The shape of
    [check] and refusal diagnostics, and of [fixq lint --format json]. *)
val diag_json : Fixq_analysis.Diag.t -> Json.t
