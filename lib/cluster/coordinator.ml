module Json = Fixq_service.Json
module Protocol = Fixq_service.Protocol
module Lang = Fixq.Lang

type backend = {
  workers : string list;
  send :
    string -> timeout_ms:float option -> string -> (string, string) result;
  info : string -> (string * Json.t) list;
  restarts : unit -> int;
  stop : unit -> unit;
  add_worker : unit -> (string, string) result;
  retire_worker : string -> unit;
  kill_worker : string -> unit;
}

type config = {
  replication : int;
  scatter : bool;
  retries : int;
  backoff_ms : float;
  jitter : float;
  timeout_ms : float option;
  compact_patches : int;
}

let default_config =
  { replication = 2; scatter = true; retries = 2; backoff_ms = 50.;
    jitter = 0.5; timeout_ms = None; compact_patches = 16 }

(* What one worker process holds, and in which order it loaded it. A
   worker allocates node ids in load order and [Item.ddo] sorts
   cross-document by node id, so [ords] is exactly the worker's
   cross-document serialization (and seed enumeration) order. *)
type worker_docs = {
  mutable next_ord : int;
  ords : (string, int) Hashtbl.t;  (** uri → local load order *)
}

type t = {
  config : config;
  backend : backend;
  mutable workers : string list;
      (** current cluster membership, under [lock] — starts as
          [backend.workers], grows on add-worker, shrinks on
          remove-worker *)
  mutable router : Router.t;
  mutable next_router : Router.t option;
      (** set only while a rebalance is in flight ([doc_lock] held) *)
  cutover : (string, unit) Hashtbl.t;
      (** uris already routed by [next_router]: each key's cutover is
          one table insert under [lock] — atomic per key *)
  drained : (string, unit) Hashtbl.t;
      (** workers out of the routing table but still running *)
  lock : Mutex.t;
  doc_lock : Mutex.t;
      (** serializes document placement: load/unload, failover
          shipping, respawn replay. Two racing load-docs for one uri
          (or a load racing a replay) must not leave workers holding
          different content or different load orders than [docs] and
          [loaded] record. Never acquired while holding [lock]. *)
  alive : (string, unit) Hashtbl.t;
  docs : (string, int * string list) Hashtbl.t;
      (** uri → (load sequence, request-line history: the load-doc line
          followed by every patch-doc line applied since, in order).
          Failover shipping and respawn replay re-send the whole
          history so the recipient reconstructs the patched document.
          The sequence is the document's position in the global load
          order — fresh on every (re)load {e and} every patch, because
          both allocate fresh node ids on the workers that take them.
          [gather_keyed] sorts by it, and
          [order_ok] admits a worker to scatter (or prefers it for
          routed multi-document runs) only when the worker's own load
          order agrees, so position() enumeration and cross-document
          serialization match across processes. *)
  loaded : (string, worker_docs) Hashtbl.t;
  mutable doc_seq : int;
  mutable generation : int;
  mutable retries_total : int;
  mutable backoff_ms_total : float;
  mutable failovers_total : int;
  mutable scatter_runs : int;
  mutable routed_runs : int;
  mutable rebalances_total : int;
  mutable docs_moved_total : int;
  mutable compactions_total : int;
  started_at : float;
}

let create ?(config = default_config) (backend : backend) =
  let router =
    Router.create ~workers:backend.workers ~replication:config.replication
  in
  let alive = Hashtbl.create 8 in
  List.iter (fun w -> Hashtbl.replace alive w ()) backend.workers;
  { config; backend; workers = backend.workers; router; next_router = None;
    cutover = Hashtbl.create 16; drained = Hashtbl.create 4;
    lock = Mutex.create ();
    doc_lock = Mutex.create (); alive;
    docs = Hashtbl.create 16; loaded = Hashtbl.create 8;
    doc_seq = 0;
    generation = 0; retries_total = 0; backoff_ms_total = 0.;
    failovers_total = 0; scatter_runs = 0;
    routed_runs = 0; rebalances_total = 0; docs_moved_total = 0;
    compactions_total = 0; started_at = Unix.gettimeofday () }

let router t = t.router

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let doc_locked t f =
  Mutex.lock t.doc_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.doc_lock) f

let is_alive t name = locked t (fun () -> Hashtbl.mem t.alive name)
let mark_dead t name = locked t (fun () -> Hashtbl.remove t.alive name)
let current_workers t = locked t (fun () -> t.workers)

let alive_workers t =
  locked t (fun () ->
      List.filter (fun w -> Hashtbl.mem t.alive w) t.workers)

(* During a rebalance a key routes by the old table until its cutover
   lands in [t.cutover]; outside one, [next_router] is [None] and the
   current table decides. Both reads happen under one [lock] section so
   a key's routing flips atomically. *)
let router_for_locked t key =
  match t.next_router with
  | Some next when Hashtbl.mem t.cutover key -> next
  | _ -> t.router

let ranking_for t ~key =
  locked t (fun () -> Router.ranking (router_for_locked t key) ~key)

let replicas_for t ~key =
  locked t (fun () -> Router.replicas (router_for_locked t key) ~key)

(* The per-worker bookkeeping below runs under [t.lock]. *)

let worker_docs t name =
  match Hashtbl.find_opt t.loaded name with
  | Some wd -> wd
  | None ->
    let wd = { next_ord = 0; ords = Hashtbl.create 16 } in
    Hashtbl.replace t.loaded name wd;
    wd

(* The worker just (re)loaded [uri], allocating fresh node ids: the
   document is now LAST in its local load order. *)
let record_loaded t name uri =
  let wd = worker_docs t name in
  wd.next_ord <- wd.next_ord + 1;
  Hashtbl.replace wd.ords uri wd.next_ord

(* After [ensure_docs] ships whatever [name] is missing of [uris] (in
   global load order, appended after everything it already holds),
   will [name] hold [uris] in the global load order? Seed enumeration
   — hence position() slicing — and cross-document serialization both
   follow worker-local node-id order, so a scatter leg whose order
   diverges from its peers slices a different enumeration, and the
   gathered union silently drops or duplicates items. *)
let order_ok t name uris =
  let ords =
    match Hashtbl.find_opt t.loaded name with
    | Some wd -> wd.ords
    | None -> Hashtbl.create 0
  in
  let known =
    List.filter_map
      (fun uri ->
        Option.map (fun (seq, _) -> (uri, seq)) (Hashtbl.find_opt t.docs uri))
      uris
  in
  let (held, missing) =
    List.partition (fun (uri, _) -> Hashtbl.mem ords uri) known
  in
  let by_ord =
    List.sort compare
      (List.map (fun (uri, _) -> (Hashtbl.find ords uri, uri)) held)
  in
  let by_seq = List.sort compare (List.map (fun (u, s) -> (s, u)) held) in
  List.map snd by_ord = List.map snd by_seq
  && List.for_all
       (fun (_, hseq) -> List.for_all (fun (_, mseq) -> hseq < mseq) missing)
       held

(* ------------------------------------------------------------------ *)
(* Sending with retry / failover                                       *)
(* ------------------------------------------------------------------ *)

(* Retry the same worker with doubling backoff and jitter ([config.jitter]
   is the fraction of the backoff the random component may add — 0
   makes retries deterministic); when the budget is exhausted, mark it
   dead and let the caller fail over. *)
let send_retry t name ~timeout_ms line =
  let rec go attempt =
    match t.backend.send name ~timeout_ms line with
    | Ok r -> Ok r
    | Error e ->
      if attempt >= t.config.retries then begin
        mark_dead t name;
        Error e
      end
      else begin
        let backoff = t.config.backoff_ms *. (2. ** float_of_int attempt) in
        let jitter =
          if t.config.jitter <= 0. then 0.
          else Random.float (max 1. (backoff *. t.config.jitter))
        in
        locked t (fun () ->
            t.retries_total <- t.retries_total + 1;
            t.backoff_ms_total <- t.backoff_ms_total +. backoff +. jitter);
        Thread.delay ((backoff +. jitter) /. 1000.);
        go (attempt + 1)
      end
  in
  go 0

(* The documents of [uris] that [name] is missing, oldest global load
   sequence first — shipping in that order keeps the worker's local
   node-id order aligned with the global one whenever possible. *)
let missing_docs t name uris =
  locked t (fun () ->
      let ords =
        match Hashtbl.find_opt t.loaded name with
        | Some wd -> wd.ords
        | None -> Hashtbl.create 0
      in
      List.filter_map
        (fun uri ->
          match Hashtbl.find_opt t.docs uri with
          | Some (seq, lines) when not (Hashtbl.mem ords uri) ->
            Some (seq, uri, lines)
          | _ -> None)
        uris
      |> List.sort compare)

(* Make sure [name] holds every document of [uris] that the coordinator
   knows, re-sending the recorded load-doc lines for missing ones in
   global load order. This is what lets failover land on a worker
   outside a document's replica set: the document follows the query. *)
let ensure_docs t name uris =
  match missing_docs t name uris with
  | [] -> Ok ()
  | _ :: _ ->
    (* ship under the document lock: a concurrent (re)load of one of
       these uris, or a second shipper racing to the same worker, must
       not interleave — the worker would hold content or a load order
       the coordinator did not record *)
    doc_locked t (fun () ->
        (* a document's history (load line then patch lines) must land
           whole: recording the uri only after the last line means a
           partial replay leaves the worker out of the replica set *)
        let rec push_lines uri = function
          | [] -> Ok ()
          | line :: rest -> (
            match send_retry t name ~timeout_ms:t.config.timeout_ms line with
            | Error e -> Error e
            | Ok resp -> (
              match Json.parse resp with
              | j when Json.bool_opt (Json.member "ok" j) = Some true ->
                push_lines uri rest
              | _ -> Error (Printf.sprintf "replaying %s on %s failed" uri name)
              | exception Json.Parse_error _ ->
                Error (Printf.sprintf "replaying %s on %s: bad response" uri
                         name)))
        in
        let rec push = function
          | [] -> Ok ()
          | (_, uri, lines) :: rest -> (
            match push_lines uri lines with
            | Error e -> Error e
            | Ok () ->
              locked t (fun () -> record_loaded t name uri);
              push rest)
        in
        (* recompute under the lock: a racing shipper may have won *)
        push (missing_docs t name uris))

(* ------------------------------------------------------------------ *)
(* History compaction                                                   *)
(* ------------------------------------------------------------------ *)

(* Replace a document's request-line history (load line + every patch
   line since) with ONE materialized load-doc line, dumped from a live
   holder. The global load sequence is KEPT: a worker rebuilding the
   document from the materialized line produces the same tree —
   preorder ranks are structural — as one that replayed the patches,
   so [order_ok] and [gather_keyed] are unaffected; only replays get
   shorter. Requires [doc_lock]. *)
let compact_doc t uri =
  let info =
    locked t (fun () ->
        match Hashtbl.find_opt t.docs uri with
        | None -> None
        | Some (seq, lines) ->
          let holders =
            Hashtbl.fold
              (fun name wd acc ->
                if Hashtbl.mem wd.ords uri && Hashtbl.mem t.alive name then
                  name :: acc
                else acc)
              t.loaded []
            |> List.sort compare
          in
          Some (seq, lines, holders))
  in
  match info with
  | None -> Error (Printf.sprintf "no document loaded under %S" uri)
  | Some (_, [ line ], _) -> Ok line (* already compact *)
  | Some (seq, _, holders) ->
    let dump =
      Json.to_string
        (Json.Obj [ ("op", Json.Str "dump-doc"); ("uri", Json.Str uri) ])
    in
    let rec try_holders = function
      | [] -> Error (Printf.sprintf "no live holder can dump %s" uri)
      | h :: rest -> (
        match send_retry t h ~timeout_ms:t.config.timeout_ms dump with
        | Error _ -> try_holders rest
        | Ok resp -> (
          match Json.parse resp with
          | j when Json.bool_opt (Json.member "ok" j) = Some true -> (
            match Json.str_opt (Json.member "xml" j) with
            | None -> try_holders rest
            | Some xml ->
              let line =
                Json.to_string
                  (Json.Obj
                     [ ("op", Json.Str "load-doc"); ("uri", Json.Str uri);
                       ("xml", Json.Str xml) ])
              in
              locked t (fun () ->
                  match Hashtbl.find_opt t.docs uri with
                  | Some (seq', _) when seq' = seq ->
                    (* same seq: nothing reloaded the doc meanwhile *)
                    Hashtbl.replace t.docs uri (seq, [ line ]);
                    t.compactions_total <- t.compactions_total + 1
                  | _ -> ());
              Ok line)
          | _ -> try_holders rest
          | exception Json.Parse_error _ -> try_holders rest))
    in
    try_holders holders

(* Compact every multi-line history — the cluster [{"op":"snapshot"}]
   op. Requires [doc_lock]. *)
let compact_all t =
  let uris =
    locked t (fun () ->
        Hashtbl.fold
          (fun uri (_, lines) acc ->
            if List.length lines > 1 then uri :: acc else acc)
          t.docs [])
  in
  List.fold_left
    (fun acc uri ->
      match compact_doc t uri with Ok _ -> acc + 1 | Error _ -> acc)
    0 uris

let on_worker_respawn t name =
  doc_locked t (fun () ->
      let lines =
        locked t (fun () ->
            Hashtbl.replace t.alive name ();
            (* the respawned process is empty: forget, then replay in
               global load order so its node-id order matches its
               scatter peers' *)
            let uris =
              match Hashtbl.find_opt t.loaded name with
              | Some wd -> Hashtbl.fold (fun uri _ acc -> uri :: acc) wd.ords []
              | None -> []
            in
            Hashtbl.remove t.loaded name;
            List.filter_map
              (fun uri ->
                Option.map
                  (fun (seq, lines) -> (seq, uri, lines))
                  (Hashtbl.find_opt t.docs uri))
              uris
            |> List.sort compare)
      in
      List.iter
        (fun (_, uri, doc_lines) ->
          (* replay the compacted history when we can: one materialized
             load line instead of load + N patches *)
          let doc_lines =
            if t.config.compact_patches > 0 && List.length doc_lines > 1 then
              match compact_doc t uri with
              | Ok line -> [ line ]
              | Error _ -> doc_lines
            else doc_lines
          in
          let ok =
            List.for_all
              (fun line ->
                match
                  send_retry t name ~timeout_ms:t.config.timeout_ms line
                with
                | Ok _ -> true
                | Error _ -> false)
              doc_lines
          in
          if ok then locked t (fun () -> record_loaded t name uri))
        lines)

(* ------------------------------------------------------------------ *)
(* Routing                                                             *)
(* ------------------------------------------------------------------ *)

let parse_query query =
  match Lang.Parser.parse_program query with
  | p -> Ok p
  | exception Lang.Parser.Error { line; col; msg } ->
    Error (Printf.sprintf "parse error at %d:%d: %s" line col msg)
  | exception Lang.Lexer.Error { pos; msg } ->
    let line, col = Lang.Lexer.line_col_of query pos in
    Error (Printf.sprintf "lex error at %d:%d: %s" line col msg)

(* Preference order for a query: the rendezvous ranking of its first
   document (or of the query text itself when it touches no document),
   restricted to live workers. Workers outside the replica set still
   qualify — [ensure_docs] ships them the documents — so a query
   survives as long as one worker lives. Multi-document queries prefer
   workers whose local load order matches the global one: the others
   would answer with a set-equal but differently serialized result
   (documents in the wrong order). *)
let candidates t ~docs ~query =
  let key = match docs with [] -> "q:" ^ query | uri :: _ -> uri in
  let ranked = ranking_for t ~key in
  locked t (fun () ->
      let live = List.filter (fun w -> Hashtbl.mem t.alive w) ranked in
      match docs with
      | [] | [ _ ] -> live
      | _ ->
        let (consistent, rest) =
          List.partition (fun w -> order_ok t w docs) live
        in
        consistent @ rest)

(* Live workers inside the replica sets of ALL the query's documents
   whose local document load order agrees with the global one — the
   only sound scatter targets: a worker that loaded (or will receive,
   via [ensure_docs]) the documents in another order enumerates the
   seed differently, and the position()-mod-N slices would overlap or
   miss elements. *)
let scatter_set t ~docs ~query =
  let reps =
    match docs with
    | [] -> replicas_for t ~key:("q:" ^ query)
    | first :: rest ->
      List.fold_left
        (fun acc uri ->
          let r = replicas_for t ~key:uri in
          List.filter (fun w -> List.mem w r) acc)
        (replicas_for t ~key:first)
        rest
  in
  locked t (fun () ->
      List.filter
        (fun w -> Hashtbl.mem t.alive w && order_ok t w docs)
        reps)

(* Scatter is sound only when uniting the slices provably reproduces
   the whole: the program must BE one IFP (not merely contain one),
   its body must pass the Figure-5 syntactic distributivity check —
   Theorem 3.2 then gives e(s1 ∪ s2) = e(s1) ∪ e(s2) — and the
   analyzer must classify it [Terminates] (node-only seed and body):
   [gather_keyed] merges by portable node identity, while atoms would
   have to be restored to the single process's engine-production
   order, which the slices do not carry. The whole precondition lives
   in {!Fixq_analysis.Analyze.scatter_eligible}, shared with `fixq
   lint`'s report. *)
let scatterable t ~stratified (p : Lang.Ast.program) =
  t.config.scatter && Fixq_analysis.Analyze.scatter_eligible ~stratified p

(* ------------------------------------------------------------------ *)
(* JSON plumbing                                                       *)
(* ------------------------------------------------------------------ *)

let obj_fields = function Json.Obj fields -> fields | _ -> []

let without keys fields =
  List.filter (fun (k, _) -> not (List.mem k keys)) fields

let append_field (resp : string) key value =
  match Json.parse resp with
  | Json.Obj fields -> Json.to_string (Json.Obj (fields @ [ (key, value) ]))
  | _ | (exception Json.Parse_error _) -> resp

let forward_timeout t (params : Protocol.run_params) =
  (* give the worker its own budget plus slack before the transport
     gives up on the read; an unbudgeted request inherits the
     coordinator default *)
  match params.Protocol.timeout_ms with
  | Some ms -> Some ((ms *. 2.) +. 5000.)
  | None -> t.config.timeout_ms

(* ------------------------------------------------------------------ *)
(* The run path                                                        *)
(* ------------------------------------------------------------------ *)

(* Route the whole request to the first candidate that answers, marking
   losers dead and failing over down the preference order. *)
let run_routed t ~id ~docs ~cands ~timeout_ms line =
  let rec go = function
    | [] ->
      Json.to_string
        (Protocol.error_response ~id "no live worker can serve this request")
    | name :: rest -> (
      let fail () =
        if rest <> [] then
          locked t (fun () -> t.failovers_total <- t.failovers_total + 1);
        go rest
      in
      match ensure_docs t name docs with
      | Error _ -> fail ()
      | Ok () -> (
        match send_retry t name ~timeout_ms line with
        | Error _ -> fail ()
        | Ok resp ->
          locked t (fun () -> t.routed_runs <- t.routed_runs + 1);
          append_field resp "worker" (Json.Str name)))
  in
  go cands

type keyed_entry = { sort : int * int; tie : string; xml : string }

(* Merge the legs' keyed item lists into the single-process
   serialization: dedupe by portable identity, order document nodes by
   (document load sequence, preorder rank) — exactly [Item.ddo]'s
   document order for identically-loaded stores — and join with single
   spaces as [Serializer.seq_to_string] does.

   Each worker serializes its shard already in that order, so the legs
   are merged pairwise (the same kernel shape as
   [Fixq_xdm.Accumulator.merged]) instead of re-sorted globally; a leg
   that arrives out of order is sorted first (counted as a fallback).
   Entries sharing a key keep the earlier leg's serialization — the
   first-seen-wins rule of the old hash-based dedup — and the output
   order among survivors depends only on the key, so the merged bytes
   equal the old globally-sorted bytes. *)
let entry_key e = (e.sort, e.tie)

let gather_keyed t legs =
  let parse_leg leg =
    match Json.member "keyed" leg with
    | Json.List items ->
      List.map
        (fun item ->
          let xml =
            Option.value ~default:"" (Json.str_opt (Json.member "x" item))
          in
          match Json.str_opt (Json.member "u" item) with
          | Some u ->
            let rank =
              Option.value ~default:0 (Json.int_opt (Json.member "r" item))
            in
            let seq =
              locked t (fun () ->
                  match Hashtbl.find_opt t.docs u with
                  | Some (seq, _) -> seq
                  | None -> max_int - 1)
            in
            { sort = (seq, rank); tie = "u:" ^ u; xml }
          | None ->
            let k =
              Option.value ~default:("x:" ^ xml)
                (Json.str_opt (Json.member "k" item))
            in
            { sort = (max_int, 0); tie = k; xml })
        items
    | _ -> []
  in
  (* Strictly-ascending scan doubling as within-leg dedup (first wins). *)
  let sorted_leg entries =
    let sorted =
      let rec ascending prev = function
        | [] -> true
        | e :: rest ->
          compare (entry_key prev) (entry_key e) < 0 && ascending e rest
      in
      match entries with [] -> true | e :: rest -> ascending e rest
    in
    if sorted then entries
    else begin
      incr Fixq_xdm.Counters.fallback_sorts;
      let stable =
        List.stable_sort
          (fun a b -> compare (entry_key a) (entry_key b))
          entries
      in
      let rec dedup = function
        | [] -> []
        | a :: rest ->
          let rec drop = function
            | b :: more when entry_key a = entry_key b -> drop more
            | more -> more
          in
          a :: dedup (drop rest)
      in
      dedup stable
    end
  in
  (* Linear two-leg merge; on equal keys the earlier leg's entry wins. *)
  let merge a b =
    incr Fixq_xdm.Counters.merges;
    Fixq_xdm.Counters.merged_items :=
      !Fixq_xdm.Counters.merged_items + List.length a + List.length b;
    let rec go acc a b =
      match (a, b) with
      | ([], rest) | (rest, []) -> List.rev_append acc rest
      | (x :: xs, y :: ys) ->
        let c = compare (entry_key x) (entry_key y) in
        if c < 0 then go (x :: acc) xs b
        else if c > 0 then go (y :: acc) a ys
        else go (x :: acc) xs ys
    in
    go [] a b
  in
  let rec reduce = function
    | [] -> []
    | [ l ] -> l
    | l1 :: l2 :: rest -> reduce (merge l1 l2 :: rest)
  in
  let merged = reduce (List.map (fun l -> sorted_leg (parse_leg l)) legs) in
  String.concat " " (List.map (fun e -> e.xml) merged)

let num_member name j = Option.value ~default:0. (Json.num_opt (Json.member name j))
let int_member name j = Option.value ~default:0 (Json.int_opt (Json.member name j))

(* Chaos faults on a scatter leg resolve to a leg [Error], i.e. the
   `Transport shape — the coordinator falls back to whole-query routing
   exactly as it would for a worker that died between scatter and
   gather. [Kill] additionally marks the worker dead so the fallback
   must route around it (the in-flight failover path). *)
let chaos_scatter t name =
  match Fixq_chaos.check "coordinator.scatter" with
  | None -> None
  | Some (Fixq_chaos.Delay s) ->
    Fixq_chaos.sleep s;
    None
  | Some Fixq_chaos.Kill ->
    mark_dead t name;
    Some (Printf.sprintf "chaos: %s killed mid-scatter" name)
  | Some (Fixq_chaos.Drop | Fixq_chaos.Truncate | Fixq_chaos.Oom) ->
    Some (Printf.sprintf "chaos: scatter leg to %s dropped" name)

let run_scatter t ~id ~docs ~workers ~timeout_ms fields =
  let m = List.length workers in
  let base = without [ "id"; "partition" ] fields in
  let results = Array.make m (Error "not sent") in
  let threads =
    List.mapi
      (fun j name ->
        let leg_line =
          Json.to_string
            (Json.Obj
               (base
               @ [ ("partition",
                    Json.Obj
                      [ ("index", Json.of_int j); ("of", Json.of_int m) ]) ]))
        in
        Thread.create
          (fun () ->
            let r =
              match chaos_scatter t name with
              | Some e -> Error e
              | None -> (
                match ensure_docs t name docs with
                | Error e -> Error e
                | Ok () ->
                (* re-check after shipping: a racing load-doc may have
                   changed this worker's local order since
                   [scatter_set] approved it *)
                if locked t (fun () -> order_ok t name docs) then
                  send_retry t name ~timeout_ms leg_line
                else
                  Error
                    (Printf.sprintf
                       "%s no longer holds documents in global load order"
                       name))
            in
            results.(j) <- r)
          ())
      workers
  in
  List.iter Thread.join threads;
  let parsed =
    Array.to_list results
    |> List.map (fun r ->
           match r with
           | Error e -> Error (`Transport e)
           | Ok resp -> (
             match Json.parse resp with
             | j ->
               if Json.bool_opt (Json.member "ok" j) = Some true then Ok j
               else
                 Error
                   (`Worker
                     (Option.value ~default:"worker error"
                        (Json.str_opt (Json.member "error" j))))
             | exception Json.Parse_error m -> Error (`Worker m)))
  in
  if List.exists (function Error (`Transport _) -> true | _ -> false) parsed
  then `Fallback (* a leg died or fell out of load order: give up *)
  else
    match
      List.find_map
        (function Error (`Worker m) -> Some m | _ -> None)
        parsed
    with
    | Some msg -> `Response (Json.to_string (Protocol.error_response ~id msg))
    | None ->
      let legs = List.filter_map Result.to_option parsed in
      (* belt and braces under the static node-only gate: if a leg
         still produced an item without portable node identity (an
         atom or constructed node, keyed "k"), its single-process
         serialization order cannot be rebuilt here — run whole *)
      let nodes_only =
        List.for_all
          (fun leg ->
            match Json.member "keyed" leg with
            | Json.List items ->
              List.for_all
                (fun item -> Json.str_opt (Json.member "u" item) <> None)
                items
            | _ -> true)
          legs
      in
      if not nodes_only then `Fallback
      else
      let first = List.hd legs in
      let result = gather_keyed t legs in
      locked t (fun () -> t.scatter_runs <- t.scatter_runs + 1);
      let generation = locked t (fun () -> t.generation) in
      `Response
        (Json.to_string
           (Protocol.ok_response ~id
              [ ("engine", Json.member "engine" first);
                ("mode", Json.member "mode" first);
                ("used_delta", Json.member "used_delta" first);
                ("generation", Json.of_int generation);
                ("nodes_fed",
                 Json.of_int
                   (List.fold_left
                      (fun acc l -> acc + int_member "nodes_fed" l)
                      0 legs));
                ("depth",
                 Json.of_int
                   (List.fold_left
                      (fun acc l -> max acc (int_member "depth" l))
                      0 legs));
                ("result", Json.Str result);
                ("scatter",
                 Json.Obj
                   [ ("legs", Json.of_int m);
                     ("workers",
                      Json.List (List.map (fun w -> Json.Str w) workers)) ]);
                ("wall_ms",
                 Json.Num
                   (List.fold_left
                      (fun acc l -> Float.max acc (num_member "wall_ms" l))
                      0. legs)) ]))

let handle_run t ~id req (params : Protocol.run_params) =
  match parse_query params.Protocol.query with
  | Error msg -> Json.to_string (Protocol.error_response ~id msg)
  | Ok program ->
    let docs = Fixq.doc_uris program in
    let line = Json.to_string req in
    let timeout_ms = forward_timeout t params in
    let cands = candidates t ~docs ~query:params.Protocol.query in
    let stratified = Option.value ~default:false params.Protocol.stratified in
    let scatter_workers =
      if params.Protocol.partition <> None then []
        (* client already partitions: forward whole *)
      else if scatterable t ~stratified program then
        scatter_set t ~docs ~query:params.Protocol.query
      else []
    in
    if List.length scatter_workers >= 2 then
      match
        run_scatter t ~id ~docs ~workers:scatter_workers ~timeout_ms
          (obj_fields req)
      with
      | `Response r -> r
      | `Fallback ->
        (* failover: re-route the whole query to whoever is left *)
        locked t (fun () -> t.failovers_total <- t.failovers_total + 1);
        let cands = candidates t ~docs ~query:params.Protocol.query in
        run_routed t ~id ~docs ~cands ~timeout_ms line
    else run_routed t ~id ~docs ~cands ~timeout_ms line

(* ------------------------------------------------------------------ *)
(* Documents                                                           *)
(* ------------------------------------------------------------------ *)

(* One document op at a time ([doc_lock]): with several serving
   threads, two racing load-docs for the same uri with different
   sources could otherwise leave replicas holding different content
   while [t.docs] records a single line. *)
let handle_load_doc t ~id req uri =
  doc_locked t @@ fun () ->
  let line = Json.to_string (Json.Obj (without [ "id" ] (obj_fields req))) in
  let reps = replicas_for t ~key:uri in
  let results =
    List.map
      (fun name ->
        if not (is_alive t name) then (name, Error "dead")
        else (name, send_retry t name ~timeout_ms:t.config.timeout_ms line))
      reps
  in
  (* a protocol-level failure (bad path, bad generator) is deterministic
     across replicas: report it instead of recording the document *)
  let worker_error =
    List.find_map
      (fun (_, r) ->
        match r with
        | Ok resp -> (
          match Json.parse resp with
          | j when Json.bool_opt (Json.member "ok" j) = Some false ->
            Json.str_opt (Json.member "error" j)
          | _ -> None
          | exception Json.Parse_error _ -> None)
        | Error _ -> None)
      results
  in
  match worker_error with
  | Some msg -> Json.to_string (Protocol.error_response ~id msg)
  | None ->
    let succeeded =
      List.filter_map
        (fun (name, r) -> match r with Ok _ -> Some name | Error _ -> None)
        results
    in
    if succeeded = [] then
      Json.to_string
        (Protocol.error_response ~id
           (Printf.sprintf "no live replica accepted document %s" uri))
    else begin
      let generation =
        locked t (fun () ->
            (* a (re)load allocates fresh node ids on every worker that
               takes it, so the document moves to the END of the global
               load order: always a fresh sequence *)
            t.doc_seq <- t.doc_seq + 1;
            Hashtbl.replace t.docs uri (t.doc_seq, [ line ]);
            (* workers that held an older copy (stale replicas after a
               reload, earlier failover recipients) must be re-shipped
               the new line before they serve this document again *)
            Hashtbl.iter (fun _ wd -> Hashtbl.remove wd.ords uri) t.loaded;
            List.iter (fun name -> record_loaded t name uri) succeeded;
            t.generation <- t.generation + 1;
            t.generation)
      in
      Json.to_string
        (Protocol.ok_response ~id
           [ ("uri", Json.Str uri);
             ("generation", Json.of_int generation);
             ("workers",
              Json.List (List.map (fun w -> Json.Str w) succeeded)) ])
    end

let handle_unload_doc t ~id req uri =
  doc_locked t @@ fun () ->
  let line = Json.to_string (Json.Obj (without [ "id" ] (obj_fields req))) in
  let holders =
    locked t (fun () ->
        Hashtbl.fold
          (fun name wd acc ->
            if Hashtbl.mem wd.ords uri then name :: acc else acc)
          t.loaded [])
  in
  List.iter
    (fun name ->
      if is_alive t name then
        ignore (send_retry t name ~timeout_ms:t.config.timeout_ms line);
      locked t (fun () -> Hashtbl.remove (worker_docs t name).ords uri))
    holders;
  let generation =
    locked t (fun () ->
        Hashtbl.remove t.docs uri;
        t.generation <- t.generation + 1;
        t.generation)
  in
  Json.to_string
    (Protocol.ok_response ~id
       [ ("uri", Json.Str uri); ("generation", Json.of_int generation) ])

(* A patch ships only to the workers currently holding the uri — the
   shards owning the document — never the whole fleet: workers without
   the document pick the patch up from the line history the next time
   [ensure_docs] or a respawn replay lands the document on them. Each
   holder rebuilds the patched subtree with fresh node ids, so (like a
   reload) the document moves to the END of every holder's local load
   order; recording a fresh sequence and re-recording ords keeps
   [order_ok] honest. *)
let handle_patch_doc t ~id req uri =
  doc_locked t @@ fun () ->
  let line = Json.to_string (Json.Obj (without [ "id" ] (obj_fields req))) in
  let known = locked t (fun () -> Hashtbl.mem t.docs uri) in
  if not known then
    Json.to_string
      (Protocol.error_response ~id
         (Printf.sprintf "no document loaded under %S" uri))
  else begin
    let holders =
      locked t (fun () ->
          Hashtbl.fold
            (fun name wd acc ->
              if Hashtbl.mem wd.ords uri && Hashtbl.mem t.alive name then
                name :: acc
              else acc)
            t.loaded []
          |> List.sort compare)
    in
    let results =
      List.map
        (fun name ->
          (name, send_retry t name ~timeout_ms:t.config.timeout_ms line))
        holders
    in
    (* a protocol-level refusal (bad path, malformed payload) is
       deterministic across holders: report it, leave the history
       unchanged so replicas stay consistent *)
    let worker_error =
      List.find_map
        (fun (_, r) ->
          match r with
          | Ok resp -> (
            match Json.parse resp with
            | j when Json.bool_opt (Json.member "ok" j) = Some false ->
              Json.str_opt (Json.member "error" j)
            | _ -> None
            | exception Json.Parse_error _ -> None)
          | Error _ -> None)
        results
    in
    match worker_error with
    | Some msg -> Json.to_string (Protocol.error_response ~id msg)
    | None ->
      let succeeded, failed =
        List.partition_map
          (fun (name, r) ->
            match r with Ok _ -> Left name | Error _ -> Right name)
          results
      in
      if succeeded = [] then
        Json.to_string
          (Protocol.error_response ~id
             (Printf.sprintf "no live holder accepted patch for %s" uri))
      else begin
        let generation =
          locked t (fun () ->
              t.doc_seq <- t.doc_seq + 1;
              (match Hashtbl.find_opt t.docs uri with
               | Some (_, lines) ->
                 Hashtbl.replace t.docs uri (t.doc_seq, lines @ [ line ])
               | None -> ());
              (* a holder that missed the patch holds stale content:
                 drop it from the replica set so it gets the full
                 history replayed before serving this uri again *)
              List.iter
                (fun name ->
                  Hashtbl.remove (worker_docs t name).ords uri)
                failed;
              List.iter
                (fun name ->
                  Hashtbl.remove (worker_docs t name).ords uri;
                  record_loaded t name uri)
                succeeded;
              t.generation <- t.generation + 1;
              t.generation)
        in
        (* keep respawn replay and failover shipping O(1) lines per
           document: past the threshold, fold the history into one
           materialized load (same seq, so the global order is kept) *)
        if t.config.compact_patches > 0 then begin
          let depth =
            locked t (fun () ->
                match Hashtbl.find_opt t.docs uri with
                | Some (_, lines) -> List.length lines
                | None -> 0)
          in
          if depth > t.config.compact_patches then ignore (compact_doc t uri)
        end;
        Json.to_string
          (Protocol.ok_response ~id
             [ ("uri", Json.Str uri);
               ("generation", Json.of_int generation);
               ("workers",
                Json.List (List.map (fun w -> Json.Str w) succeeded)) ])
      end
  end

(* ------------------------------------------------------------------ *)
(* Online rebalancing                                                   *)
(* ------------------------------------------------------------------ *)

(* A chaos fault on a key move. [Kill] SIGKILLs the DESTINATION worker
   mid-move — the realistic mid-cutover crash: the health thread
   respawns the process (its [on_respawn] replay then queues on
   [doc_lock] until the rebalance finishes), and the move is retried on
   a later round against the fresh, empty worker. The other faults fail
   the attempt without side effects; it is retried the same way. *)
let chaos_rebalance t ~dest =
  match Fixq_chaos.check "coordinator.rebalance" with
  | None -> Ok ()
  | Some (Fixq_chaos.Delay s) ->
    Fixq_chaos.sleep s;
    Ok ()
  | Some Fixq_chaos.Kill ->
    t.backend.kill_worker dest;
    mark_dead t dest;
    Error (Printf.sprintf "chaos: destination %s killed mid-move" dest)
  | Some (Fixq_chaos.Drop | Fixq_chaos.Truncate | Fixq_chaos.Oom) ->
    Error "chaos: key move dropped"

(* Move one key to its placement under [next]: compact its history to a
   single materialized load line (dumped from a live holder — snapshot
   shipping, not line replay), send that to the replicas gained under
   [next], then flip the key's routing in one [cutover] insert. The old
   holders keep serving the key until that flip. Requires [doc_lock]. *)
let move_key t ~next uri =
  let old_reps = Router.replicas t.router ~key:uri in
  let new_reps = Router.replicas next ~key:uri in
  let gained = List.filter (fun w -> not (List.mem w old_reps)) new_reps in
  let targets =
    locked t (fun () ->
        List.filter
          (fun w ->
            match Hashtbl.find_opt t.loaded w with
            | Some wd -> not (Hashtbl.mem wd.ords uri)
            | None -> true)
          gained)
  in
  let lines =
    (* a doc whose only holders died ships its recorded history instead *)
    match compact_doc t uri with
    | Ok line -> [ line ]
    | Error _ -> (
      match locked t (fun () -> Hashtbl.find_opt t.docs uri) with
      | Some (_, lines) -> lines
      | None -> [])
  in
  let ship_to dest =
    if lines = [] then Error (Printf.sprintf "no recorded history for %s" uri)
    else
    match chaos_rebalance t ~dest with
    | Error _ as e -> e
    | Ok () ->
      let rec push = function
        | [] ->
          locked t (fun () -> record_loaded t dest uri);
          Ok ()
        | line :: rest -> (
          match send_retry t dest ~timeout_ms:t.config.timeout_ms line with
          | Error _ as e -> e
          | Ok resp -> (
            match Json.parse resp with
            | j when Json.bool_opt (Json.member "ok" j) = Some true ->
              push rest
            | j ->
              Error
                (Option.value ~default:"load refused"
                   (Json.str_opt (Json.member "error" j)))
            | exception Json.Parse_error _ -> Error "bad response"))
      in
      push lines
  in
  let shipped =
    List.fold_left
      (fun acc dest -> match acc with Error _ -> acc | Ok () -> ship_to dest)
      (Ok ()) targets
  in
  match shipped with
  | Error _ as e -> e
  | Ok () ->
    locked t (fun () -> Hashtbl.replace t.cutover uri ());
    Ok ()

(* Swap the routing table to [next]. Runs whole under [doc_lock]:
   loads, unloads and patches queue behind it; queries keep flowing
   (they contend on [doc_lock] only when a document must be shipped).
   Key moves that keep failing — chaos killing the destination over and
   over — are bounded by [max_rounds] and then cut over anyway: that is
   safe, because routing a query at a replica that lacks the document
   makes [ensure_docs] ship the (compacted) history on demand. Returns
   (moved, still-pending) uris. *)
let rebalance t ~next =
  doc_locked t @@ fun () ->
  locked t (fun () ->
      t.rebalances_total <- t.rebalances_total + 1;
      t.next_router <- Some next;
      Hashtbl.reset t.cutover);
  let keys =
    locked t (fun () ->
        Hashtbl.fold (fun uri (seq, _) acc -> (seq, uri) :: acc) t.docs []
        |> List.sort compare |> List.map snd)
  in
  let moving =
    List.filter
      (fun uri ->
        Router.replicas t.router ~key:uri <> Router.replicas next ~key:uri)
      keys
  in
  let max_rounds = 50 in
  let rec rounds n pending =
    if pending = [] || n >= max_rounds then pending
    else begin
      if n > 0 then Thread.delay 0.2;
      (* a killed destination needs the health thread's respawn *)
      let failed =
        List.filter
          (fun uri ->
            match move_key t ~next uri with Ok () -> false | Error _ -> true)
          pending
      in
      rounds (n + 1) failed
    end
  in
  let pending = rounds 0 moving in
  locked t (fun () ->
      t.router <- next;
      t.next_router <- None;
      Hashtbl.reset t.cutover;
      t.docs_moved_total <- t.docs_moved_total + List.length moving);
  (moving, pending)

let topology_response t ~id ~worker ~moved ~pending =
  Json.to_string
    (Protocol.ok_response ~id
       [ ("worker", Json.Str worker);
         ("moved", Json.List (List.map (fun u -> Json.Str u) moved));
         ("pending", Json.List (List.map (fun u -> Json.Str u) pending));
         ("workers",
          Json.List
            (List.map (fun w -> Json.Str w)
               (locked t (fun () -> Router.workers t.router)))) ])

let handle_add_worker t ~id =
  match t.backend.add_worker () with
  | Error msg -> Json.to_string (Protocol.error_response ~id msg)
  | Ok name ->
    locked t (fun () ->
        t.workers <- t.workers @ [ name ];
        Hashtbl.replace t.alive name ());
    let next =
      Router.create
        ~workers:(locked t (fun () -> Router.workers t.router) @ [ name ])
        ~replication:t.config.replication
    in
    let (moved, pending) = rebalance t ~next in
    topology_response t ~id ~worker:name ~moved ~pending

(* Take [name] out of the routing table (its keys move to the
   survivors) but keep the process running. Idempotent-ish: draining a
   worker already out of the table moves nothing. *)
let drain_out t name =
  let current = locked t (fun () -> Router.workers t.router) in
  if not (List.mem name current) then Ok ([], [])
  else if List.length current <= 1 then
    Error "cannot drain the last worker"
  else begin
    let next =
      Router.create
        ~workers:(List.filter (fun w -> w <> name) current)
        ~replication:t.config.replication
    in
    let (moved, pending) = rebalance t ~next in
    locked t (fun () -> Hashtbl.replace t.drained name ());
    Ok (moved, pending)
  end

let handle_drain t ~id name =
  if not (List.mem name (current_workers t)) then
    Json.to_string
      (Protocol.error_response ~id (Printf.sprintf "unknown worker %S" name))
  else
    match drain_out t name with
    | Error msg -> Json.to_string (Protocol.error_response ~id msg)
    | Ok (moved, pending) ->
      topology_response t ~id ~worker:name ~moved ~pending

let handle_remove_worker t ~id name =
  if not (List.mem name (current_workers t)) then
    Json.to_string
      (Protocol.error_response ~id (Printf.sprintf "unknown worker %S" name))
  else
    match drain_out t name with
    | Error msg -> Json.to_string (Protocol.error_response ~id msg)
    | Ok (moved, pending) ->
      t.backend.retire_worker name;
      locked t (fun () ->
          t.workers <- List.filter (fun w -> w <> name) t.workers;
          Hashtbl.remove t.alive name;
          Hashtbl.remove t.drained name;
          Hashtbl.remove t.loaded name);
      topology_response t ~id ~worker:name ~moved ~pending

(* The cluster-level [{"op":"snapshot"}]: compact every document's line
   history (the cluster's equivalent of the workers' WAL-truncating
   snapshot — respawn replay afterwards is one line per document). *)
let handle_cluster_snapshot t ~id =
  let compacted = doc_locked t (fun () -> compact_all t) in
  let docs = locked t (fun () -> Hashtbl.length t.docs) in
  Json.to_string
    (Protocol.ok_response ~id
       [ ("snapshot", Json.Bool true);
         ("compacted", Json.of_int compacted);
         ("documents", Json.of_int docs) ])

(* dump-doc forwards to a live holder of the uri, verbatim. *)
let handle_dump_doc t ~id req uri =
  let holders =
    locked t (fun () ->
        Hashtbl.fold
          (fun name wd acc ->
            if Hashtbl.mem wd.ords uri && Hashtbl.mem t.alive name then
              name :: acc
            else acc)
          t.loaded []
        |> List.sort compare)
  in
  let line = Json.to_string req in
  let rec go = function
    | [] ->
      Json.to_string
        (Protocol.error_response ~id
           (Printf.sprintf "no live holder of %S" uri))
    | h :: rest -> (
      match send_retry t h ~timeout_ms:t.config.timeout_ms line with
      | Error _ -> go rest
      | Ok resp -> append_field resp "worker" (Json.Str h))
  in
  go holders

(* ------------------------------------------------------------------ *)
(* Query-shaped forwards that are not runs                             *)
(* ------------------------------------------------------------------ *)

(* prepare broadcasts to every live replica — cache warming is only
   useful where the query may later land; check/plan route like a run. *)
let handle_prepare t ~id req query =
  match parse_query query with
  | Error msg -> Json.to_string (Protocol.error_response ~id msg)
  | Ok program -> (
    let docs = Fixq.doc_uris program in
    let targets =
      match scatter_set t ~docs ~query with
      | [] -> (
        match candidates t ~docs ~query with [] -> [] | c :: _ -> [ c ])
      | reps -> reps
    in
    let line = Json.to_string (Json.Obj (without [ "id" ] (obj_fields req))) in
    let results =
      List.filter_map
        (fun name ->
          match ensure_docs t name docs with
          | Error _ -> None
          | Ok () -> (
            match send_retry t name ~timeout_ms:t.config.timeout_ms line with
            | Ok resp -> Some (name, resp)
            | Error _ -> None))
        targets
    in
    match results with
    | [] ->
      Json.to_string
        (Protocol.error_response ~id "no live worker can serve this request")
    | (_, first) :: _ ->
      let fields =
        match Json.parse first with
        | Json.Obj f -> without [ "ok"; "id" ] f
        | _ | (exception Json.Parse_error _) -> []
      in
      Json.to_string
        (Protocol.ok_response ~id
           (fields
           @ [ ("workers",
                Json.List (List.map (fun (w, _) -> Json.Str w) results)) ])))

let handle_query_forward t ~id req query =
  match parse_query query with
  | Error msg -> Json.to_string (Protocol.error_response ~id msg)
  | Ok program ->
    let docs = Fixq.doc_uris program in
    let cands = candidates t ~docs ~query in
    run_routed t ~id ~docs ~cands ~timeout_ms:t.config.timeout_ms
      (Json.to_string req)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let worker_stats t name =
  if not (is_alive t name) then Json.Null
  else
    match
      send_retry t name ~timeout_ms:t.config.timeout_ms {|{"op":"stats"}|}
    with
    | Error _ -> Json.Null
    | Ok resp -> (
      match Json.parse resp with
      | j -> Json.member "stats" j
      | exception Json.Parse_error _ -> Json.Null)

let handle_stats t ~id =
  let workers =
    List.map
      (fun name ->
        Json.Obj
          ([ ("name", Json.Str name);
             ("alive", Json.Bool (is_alive t name)) ]
          @ t.backend.info name
          @ [ ("drained",
               Json.Bool (locked t (fun () -> Hashtbl.mem t.drained name)));
              ("stats", worker_stats t name) ]))
      (current_workers t)
  in
  let ( gen, docs, retries, backoff_ms, failovers, scatter, routed,
        rebalances, moved, compactions ) =
    locked t (fun () ->
        ( t.generation,
          Hashtbl.fold (fun uri (seq, _) acc -> (seq, uri) :: acc) t.docs []
          |> List.sort compare |> List.map snd,
          t.retries_total, t.backoff_ms_total, t.failovers_total,
          t.scatter_runs, t.routed_runs, t.rebalances_total,
          t.docs_moved_total, t.compactions_total ))
  in
  Json.to_string
    (Protocol.ok_response ~id
       [ ("stats",
          Json.Obj
            [ ("workers", Json.List workers);
              ("documents", Json.List (List.map (fun u -> Json.Str u) docs));
              ("generation", Json.of_int gen);
              ("replication", Json.of_int (Router.replication t.router));
              ("retries", Json.of_int retries);
              ("backoff_ms_total", Json.Num backoff_ms);
              ("failovers", Json.of_int failovers);
              ("scatter_runs", Json.of_int scatter);
              ("routed_runs", Json.of_int routed);
              ("rebalances", Json.of_int rebalances);
              ("docs_moved", Json.of_int moved);
              ("compactions", Json.of_int compactions);
              ("restarts", Json.of_int (t.backend.restarts ()));
              ("uptime_ms",
               Json.Num ((Unix.gettimeofday () -. t.started_at) *. 1000.)) ]) ])

(* Inject worker="name" as the first label of every sample line so the
   workers' expositions can share one scrape page; # TYPE headers are
   deduplicated across workers. *)
let relabel_exposition ~worker ~seen_types buf text =
  List.iter
    (fun line ->
      if line = "" then ()
      else if String.length line > 0 && line.[0] = '#' then begin
        if not (Hashtbl.mem seen_types line) then begin
          Hashtbl.replace seen_types line ();
          Buffer.add_string buf line;
          Buffer.add_char buf '\n'
        end
      end
      else
        let space = String.index_opt line ' ' in
        let brace = String.index_opt line '{' in
        let out =
          match (brace, space) with
          | (Some b, Some s) when b < s ->
            String.sub line 0 b
            ^ Printf.sprintf "{worker=%S," worker
            ^ String.sub line (b + 1) (String.length line - b - 1)
          | (_, Some s) ->
            String.sub line 0 s
            ^ Printf.sprintf "{worker=%S}" worker
            ^ String.sub line s (String.length line - s)
          | _ -> line
        in
        Buffer.add_string buf out;
        Buffer.add_char buf '\n')
    (String.split_on_char '\n' text)

let prometheus_stats t =
  let buf = Buffer.create 2048 in
  let gauge name value =
    Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n%s %s\n" name name value)
  in
  let counter name value =
    Buffer.add_string buf
      (Printf.sprintf "# TYPE %s counter\n%s %d\n" name name value)
  in
  let ( gen, ndocs, retries, backoff_ms, failovers, scatter, routed,
        rebalances, moved, compactions ) =
    locked t (fun () ->
        ( t.generation, Hashtbl.length t.docs, t.retries_total,
          t.backoff_ms_total, t.failovers_total, t.scatter_runs,
          t.routed_runs, t.rebalances_total, t.docs_moved_total,
          t.compactions_total ))
  in
  gauge "fixq_cluster_uptime_seconds"
    (Printf.sprintf "%.3f" (Unix.gettimeofday () -. t.started_at));
  gauge "fixq_cluster_workers"
    (string_of_int (List.length (current_workers t)));
  gauge "fixq_cluster_workers_alive"
    (string_of_int (List.length (alive_workers t)));
  gauge "fixq_cluster_generation" (string_of_int gen);
  gauge "fixq_cluster_documents" (string_of_int ndocs);
  counter "fixq_retries_total" retries;
  Buffer.add_string buf
    (Printf.sprintf
       "# TYPE fixq_backoff_ms_total counter\nfixq_backoff_ms_total %.3f\n"
       backoff_ms);
  counter "fixq_cluster_retries_total" retries;
  counter "fixq_cluster_failovers_total" failovers;
  counter "fixq_cluster_scatter_runs_total" scatter;
  counter "fixq_cluster_routed_runs_total" routed;
  counter "fixq_cluster_rebalances_total" rebalances;
  counter "fixq_cluster_docs_moved_total" moved;
  counter "fixq_cluster_compactions_total" compactions;
  counter "fixq_cluster_worker_restarts_total" (t.backend.restarts ());
  let seen_types = Hashtbl.create 32 in
  List.iter
    (fun name ->
      if is_alive t name then
        match
          send_retry t name ~timeout_ms:t.config.timeout_ms
            {|{"op":"stats","format":"prometheus"}|}
        with
        | Error _ -> ()
        | Ok resp -> (
          match Json.parse resp with
          | j -> (
            match Json.str_opt (Json.member "prometheus" j) with
            | Some text -> relabel_exposition ~worker:name ~seen_types buf text
            | None -> ())
          | exception Json.Parse_error _ -> ()))
    (current_workers t);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let broadcast_shutdown t =
  List.iter
    (fun name ->
      if is_alive t name then
        ignore
          (t.backend.send name ~timeout_ms:(Some 2000.) {|{"op":"shutdown"}|}))
    (current_workers t)

let handle_line t line =
  match Json.parse line with
  | exception Json.Parse_error msg ->
    (Json.to_string (Protocol.error_response ~id:Json.Null msg), false)
  | req -> (
    let id = Protocol.request_id req in
    match Protocol.parse_request req with
    | Error msg -> (Json.to_string (Protocol.error_response ~id msg), false)
    | Ok parsed -> (
      try
        match parsed with
        | Protocol.Run params -> (handle_run t ~id req params, false)
        | Protocol.Prepare { query; _ } ->
          (handle_prepare t ~id req query, false)
        | Protocol.Check { query; _ } | Protocol.Plan { query; _ }
        | Protocol.Explain { query; _ } ->
          (handle_query_forward t ~id req query, false)
        | Protocol.Load_doc { uri; _ } -> (handle_load_doc t ~id req uri, false)
        | Protocol.Unload_doc { uri } ->
          (handle_unload_doc t ~id req uri, false)
        | Protocol.Patch_doc { uri; _ } ->
          (handle_patch_doc t ~id req uri, false)
        | Protocol.Snapshot -> (handle_cluster_snapshot t ~id, false)
        | Protocol.Dump_doc { uri } -> (handle_dump_doc t ~id req uri, false)
        | Protocol.Add_worker -> (handle_add_worker t ~id, false)
        | Protocol.Remove_worker { name } ->
          (handle_remove_worker t ~id name, false)
        | Protocol.Drain { name } -> (handle_drain t ~id name, false)
        | Protocol.Stats Protocol.Stats_json -> (handle_stats t ~id, false)
        | Protocol.Stats Protocol.Stats_prometheus ->
          ( Json.to_string
              (Protocol.ok_response ~id
                 [ ("prometheus", Json.Str (prometheus_stats t)) ]),
            false )
        | Protocol.Ping ->
          ( Json.to_string
              (Protocol.ok_response ~id
                 [ ("pong", Json.Bool true);
                   ("workers",
                    Json.of_int (List.length (alive_workers t))) ]),
            false )
        | Protocol.Shutdown ->
          broadcast_shutdown t;
          ( Json.to_string
              (Protocol.ok_response ~id [ ("shutdown", Json.Bool true) ]),
            true )
      with exn ->
        ( Json.to_string
            (Protocol.error_response ~id
               ("internal error: " ^ Printexc.to_string exn)),
          false )))
