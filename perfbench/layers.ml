(* Per-layer metrics of the traced run, its self-time table and its
   spans. Every number comes from the in-process replay (spans around
   [handle_line] and around each backend [send], counts from responses
   and [stats]), except transport waiting, which sets the replay's
   in-process time against the socket run's latency, class by class. *)

module Json = Fixq_service.Json

type metric = string * string * float * int  (** name, unit, value, samples *)

let is_cluster (spec : Spec.t) =
  match spec.Spec.server with Spec.Cluster _ -> true | Spec.Serve _ -> false

(* Families whose nodes fed and depth are reported: Table 2's, run cold
   by fixpoint-cold (zero on the other workloads). *)
let fixpoint_families = [ "bidder"; "dialogs"; "curriculum"; "hospital"; "q1_unfolded" ]

let filter p a = Array.of_list (List.filter p (Array.to_list a))
let sum f a = Array.fold_left (fun acc x -> acc +. f x) 0. a
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let mean a = if Array.length a = 0 then 0. else Stats.mean a

(* union length of intervals, in ms *)
let covered intervals =
  let total, last =
    List.fold_left
      (fun (tot, cur) (a, b) ->
        match cur with
        | None -> (tot, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (tot, Some (ca, Float.max cb b))
          else (tot +. (cb -. ca), Some (a, b)))
      (0., None)
      (List.sort compare intervals)
  in
  (match last with Some (a, b) -> total +. (b -. a) | None -> total) *. 1000.

let handle_ms (r : Replay.record) = (r.Replay.h1 -. r.Replay.h0) *. 1000.

(* the responses that did the engine or patch work: the worker legs on
   a cluster, the response itself on a single server *)
let work spec (r : Replay.record) =
  if is_cluster spec then List.map (fun l -> l.Replay.l_resp) r.Replay.legs
  else [ r.Replay.resp ]

let is_run (r : Replay.record) = r.Replay.r.Spec.kind = Spec.Run

let engine_ms spec r =
  if not (is_run r) then 0.
  else
    List.fold_left
      (fun a (x : Resp.t) -> if Resp.executed x then a +. x.Resp.wall_ms else a)
      0. (work spec r)

let patches spec r =
  if is_run r then [] else List.filter (fun (x : Resp.t) -> x.Resp.patch) (work spec r)

let record_class (r : Replay.record) =
  let family = r.Replay.r.Spec.family in
  match r.Replay.r.Spec.kind with
  | Spec.Run -> Resp.run_class ~family r.Replay.resp
  | Spec.Write ->
    Resp.write_class ~family ~snapshot:r.Replay.snapshot ~compaction:r.Replay.compaction

let query_of line =
  Option.value ~default:"" (Json.str_opt (Json.member "query" (Json.parse line)))

(* The request-time breakdown of one replayed request: the separately
   timed decode, the prepare estimate (a prepared-cache miss costs its
   text's measured [Prepared.prepare] time), the response-reported
   engine and patch times, and the measured backend calls. What is
   left of [handle_line] is the request's self time: cache lookups,
   serialization, encoding, WAL appends and snapshots. *)
let children spec ~prepare_ms (r : Replay.record) =
  let cluster = is_cluster spec in
  [ ("protocol.decode", r.Replay.decode *. 1000.);
    ("prepared.prepare",
     if cluster || r.Replay.resp.Resp.prepared <> Some "miss" then 0.
     else prepare_ms r);
    ("engine", if cluster then 0. else engine_ms spec r);
    ("store.patch",
     if cluster then 0.
     else List.fold_left (fun a (x : Resp.t) -> a +. x.Resp.wall_ms) 0. (patches spec r));
    ("cluster.legs", covered (List.map (fun l -> (l.Replay.l0, l.Replay.l1)) r.Replay.legs))
  ]

let self spec ~prepare_ms r =
  handle_ms r -. List.fold_left (fun a (_, v) -> a +. v) 0. (children spec ~prepare_ms r)

(* A prepare estimate per text: its own timing, else the median of its
   family's timed texts. *)
let prepare_estimate (spec : Spec.t) prep =
  let own = Hashtbl.create 64 in
  List.iter (fun (text, t) -> Hashtbl.replace own text t.Replay.prepare_ms) prep;
  let family = Hashtbl.create 8 in
  Array.iter
    (fun (f, text) ->
      match Hashtbl.find_opt own text with
      | Some ms ->
        Hashtbl.replace family f (ms :: Option.value ~default:[] (Hashtbl.find_opt family f))
      | None -> ())
    spec.Spec.texts;
  fun (r : Replay.record) ->
    match Hashtbl.find_opt own (query_of r.Replay.r.Spec.line) with
    | Some ms -> ms
    | None -> (
      match Hashtbl.find_opt family r.Replay.r.Spec.family with
      | Some l -> Stats.median (Array.of_list l)
      | None -> 0.)

(* the value of an unlabelled sample in a Prometheus exposition (0 when
   the family is absent) *)
let prometheus text name =
  List.fold_left
    (fun acc line ->
      match String.split_on_char ' ' line with
      | [ n; v ] when n = name -> Option.value ~default:acc (float_of_string_opt v)
      | _ -> acc)
    0. (String.split_on_char '\n' text)

let stat_delta path (before, after) =
  let v j =
    Option.value ~default:0.
      (Json.num_opt (List.fold_left (fun j k -> Json.member k j) j path))
  in
  int_of_float (v after -. v before)

(* ------------------------------------------------------------------ *)

let compute (spec : Spec.t) ~socket_classes ~(off : Replay.t) ~(on : Replay.t)
    ~prep ~generate_ms ~warm_ms =
  let failures = ref [] in
  let recs = on.Replay.records in
  let n = float_of_int (max 1 (Array.length recs)) in
  let prepare_ms = prepare_estimate spec prep in
  let runs = filter is_run recs in
  let writes = filter (fun r -> not (is_run r)) recs in
  let total_handle = sum handle_ms recs in
  (* the schedule that classified the socket run's writes must match
     the counters the replay read *)
  let schedule = Spec.write_schedule spec in
  Array.iter
    (fun (r : Replay.record) ->
      if schedule () <> (r.Replay.snapshot, r.Replay.compaction) then
        failures :=
          Printf.sprintf "write %s: snapshot/compaction schedule differs from the counters"
            r.Replay.r.Spec.family
          :: !failures)
    writes;
  List.iter
    (fun (uri, before, after) ->
      if before <> after then
        failures :=
          Printf.sprintf "replay: %s has %s nodes at the end, %s after set-up" uri after before
          :: !failures)
    on.Replay.nodes;
  (* transport: socket latency minus in-process time, per class,
     weighted by the socket run's class shares *)
  let inproc = Array.map (fun r -> (record_class r, handle_ms r)) recs in
  let wait, weight =
    List.fold_left
      (fun (w, tot) (s : Stats.share) ->
        let mine = filter (fun (c, _) -> c = s.Stats.cls) inproc |> Array.map snd in
        if Array.length mine = 0 then (w, tot)
        else (w +. (s.Stats.frac *. (s.Stats.med -. Stats.median mine)), tot +. s.Stats.frac))
      (0., 0.) (Stats.shares socket_classes)
  in
  let resp (r : Replay.record) = r.Replay.resp in
  let prepared_runs = filter (fun r -> (resp r).Resp.prepared <> None) runs in
  let cached_runs = filter (fun r -> (resp r).Resp.cached <> None) runs in
  let result_hits = filter (fun r -> (resp r).Resp.cached = Some "hit") runs in
  let executed =
    Array.of_list
      (List.concat_map
         (fun r -> List.filter Resp.executed (work spec r))
         (Array.to_list runs))
  in
  let family_first f field =
    match List.find_opt (fun r -> r.Replay.r.Spec.family = f) (Array.to_list runs) with
    | Some r -> float_of_int (field (resp r))
    | None -> 0.
  in
  let worker_delta path =
    List.fold_left (fun a ba -> a + stat_delta path ba) 0 on.Replay.worker_stats
  in
  let front_delta path = stat_delta path (on.Replay.stats_before, on.Replay.stats_after) in
  let kernels key =
    (* the kernel counters are process-wide: one server's view covers
       every in-process backend *)
    match on.Replay.worker_stats with
    | ba :: _ -> float_of_int (stat_delta [ "kernels"; key ] ba) /. n
    | [] -> 0.
  in
  let patch_resps = List.concat_map (patches spec) (Array.to_list writes) in
  let maintained = List.fold_left (fun a (x : Resp.t) -> a + x.Resp.maintained) 0 patch_resps in
  let recomputed = List.fold_left (fun a (x : Resp.t) -> a + x.Resp.recompute) 0 patch_resps in
  let delta_nodes = List.fold_left (fun a (x : Resp.t) -> a + x.Resp.delta_nodes) 0 patch_resps in
  (* result-cache insertions: executed, cacheable, unpartitioned runs;
     what did not stay in the cache and was not dropped by a patch was
     evicted *)
  let puts =
    Array.fold_left
      (fun a r ->
        if Json.bool_opt (Json.member "cache" (Json.parse r.Replay.r.Spec.line)) = Some false
        then a
        else
          a
          + List.length
              (List.filter
                 (fun (x : Resp.t) -> Resp.executed x && not x.Resp.partition)
                 (work spec r)))
      0 runs
  in
  let evictions = max 0 (puts - worker_delta [ "results"; "size" ] - recomputed) in
  let plain_writes = filter (fun r -> not r.Replay.snapshot) writes in
  let legs = List.concat_map (fun (r : Replay.record) -> r.Replay.legs) (Array.to_list recs) in
  let self_total = sum (self spec ~prepare_ms) recs in
  let prep_med f =
    match prep with
    | [] -> 0.
    | _ -> Stats.median (Array.of_list (List.map (fun (_, t) -> f t) prep))
  in
  let count p a = Array.length (filter p a) in
  let cluster = is_cluster spec in
  let metrics : metric list =
    [ ("transport.wait_ms", "ms", (if weight > 0. then wait /. weight else 0.),
       Array.length socket_classes);
      ("protocol.decode_us", "us", sum (fun r -> r.Replay.decode *. 1e6) recs /. n,
       Array.length recs);
      ("protocol.resp_bytes", "bytes",
       sum (fun r -> float_of_int (resp r).Resp.bytes) recs /. n, Array.length recs);
      ("prepared.hit_ratio", "frac",
       ratio (count (fun r -> (resp r).Resp.prepared = Some "hit") prepared_runs)
         (Array.length prepared_runs),
       Array.length prepared_runs);
      ("prepared.reprepare_hit_frac", "frac",
       ratio (count (fun r -> (resp r).Resp.prepared = Some "miss") result_hits)
         (Array.length result_hits),
       Array.length result_hits);
      ("prepared.prepare_ms", "ms", prep_med (fun t -> t.Replay.prepare_ms), List.length prep);
      ("prepared.cost_ms", "ms", prep_med (fun t -> t.Replay.cost_ms), List.length prep);
      ("prepared.plan_ms", "ms", prep_med (fun t -> t.Replay.plan_ms), List.length prep);
      ("prepared.sql_ms", "ms", prep_med (fun t -> t.Replay.sql_ms), List.length prep);
      ("result_cache.hit_ratio", "frac",
       ratio (Array.length result_hits) (Array.length cached_runs), Array.length cached_runs);
      ("result_cache.evictions", "count", float_of_int evictions, puts);
      ("engine.ms", "ms", mean (Array.map (fun (x : Resp.t) -> x.Resp.wall_ms) executed),
       Array.length executed);
      ("engine.share", "frac",
       (if total_handle > 0. then sum (engine_ms spec) recs /. total_handle else 0.),
       Array.length recs) ]
    @ List.concat_map
        (fun f ->
          [ ("engine.nodes_fed." ^ f, "count", family_first f (fun x -> x.Resp.nodes_fed), 1);
            ("engine.depth." ^ f, "count", family_first f (fun x -> x.Resp.depth), 1) ])
        fixpoint_families
    @ [ ("engine.delta_frac", "frac",
         ratio (count (fun (x : Resp.t) -> x.Resp.used_delta) executed) (Array.length executed),
         Array.length executed);
        ("kernels.merges_per_req", "count", kernels "merges", Array.length recs);
        ("kernels.index_nodes_per_req", "count", kernels "index_nodes", Array.length recs);
        ("kernels.fallback_sorts_per_req", "count", kernels "fallback_sorts", Array.length recs);
        ("serializer.result_bytes", "bytes",
         mean (Array.map (fun r -> float_of_int (resp r).Resp.result_len) runs),
         Array.length runs);
        ("store.patch_ms", "ms",
         (match patch_resps with
          | [] -> 0.
          | l -> Stats.median (Array.of_list (List.map (fun (x : Resp.t) -> x.Resp.wall_ms) l))),
         List.length patch_resps);
        ("ivm.maintained_ratio", "frac", ratio maintained (maintained + recomputed),
         maintained + recomputed);
        ("ivm.delta_nodes_per_patch", "count",
         float_of_int delta_nodes /. float_of_int (max 1 (Array.length writes)),
         Array.length writes);
        ("durable.wal_bytes_per_write", "bytes",
         mean (Array.map (fun r -> float_of_int r.Replay.wal_delta) plain_writes),
         Array.length plain_writes);
        ("durable.snapshots", "count", prometheus on.Replay.prom_after "fixq_snapshots_total",
         Array.length writes);
        ("cluster.scatter_frac", "frac",
         ratio (front_delta [ "scatter_runs" ])
           (front_delta [ "scatter_runs" ] + front_delta [ "routed_runs" ]),
         front_delta [ "scatter_runs" ] + front_delta [ "routed_runs" ]);
        ("cluster.legs_per_req", "count", float_of_int (List.length legs) /. n,
         Array.length recs);
        ("cluster.worker_result_hits", "count",
         (if cluster then float_of_int (worker_delta [ "results"; "hits" ]) else 0.),
         List.length on.Replay.worker_stats);
        ("cluster.leg_resp_bytes", "bytes",
         mean (Array.of_list (List.map (fun l -> float_of_int l.Replay.l_resp.Resp.bytes) legs)),
         List.length legs);
        ("cluster.compactions", "count", float_of_int (front_delta [ "compactions" ]),
         Array.length writes);
        ("cluster.retries", "count", float_of_int (front_delta [ "retries" ]), Array.length recs);
        ("cluster.failovers", "count", float_of_int (front_delta [ "failovers" ]),
         Array.length recs);
        ("governor.shed", "count", float_of_int (worker_delta [ "governor"; "shed" ]),
         Array.length recs);
        ("setup.generate_ms", "ms", generate_ms, List.length spec.Spec.docs);
        ("setup.warm_ms", "ms", warm_ms, List.length spec.Spec.warm);
        ("server.self_ms", "ms", self_total /. n, Array.length recs);
        ("trace.unaccounted_frac", "frac",
         (if total_handle > 0. then self_total /. total_handle else 0.), Array.length recs);
        ("trace.overhead_frac", "frac",
         (on.Replay.replay_s -. off.Replay.replay_s) /. off.Replay.replay_s, Array.length recs)
      ]
  in
  (* the report: self times, then the layer times that only some
     workloads have, printed by name *)
  let buf = Buffer.create 1024 in
  let line fmt = Printf.kbprintf (fun b -> Buffer.add_char b '\n') buf fmt in
  let tbl = Hashtbl.create 8 in
  let add k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k)) in
  Array.iter
    (fun r ->
      List.iter (fun (k, v) -> add k v) (children spec ~prepare_ms r);
      add (if cluster then "coordinator.self" else "server.self (unaccounted)")
        (self spec ~prepare_ms r))
    recs;
  line "  self times over %d in-process requests (%.1f ms in handle_line):"
    (Array.length recs) total_handle;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort compare
  |> List.iter (fun (k, v) ->
         line "    %-28s %10.1f ms  %5.1f%%" k v (100. *. v /. Float.max 1e-9 total_handle));
  List.iter
    (fun f ->
      let a =
        filter (fun r -> r.Replay.r.Spec.family = f && engine_ms spec r > 0.) runs
        |> Array.map (engine_ms spec)
      in
      if Array.length a > 0 then
        line "  engine.ms.%-24s %10.3f ms (n=%d)" f (Stats.mean a) (Array.length a))
    (List.sort_uniq compare (Array.to_list (Array.map fst spec.Spec.texts)));
  if on.Replay.snapshot_ms <> [] then
    line "  durable.snapshot_write_ms       %10.3f ms (n=%d, Server.force_snapshot)"
      (Stats.median (Array.of_list on.Replay.snapshot_ms))
      (List.length on.Replay.snapshot_ms);
  if cluster then begin
    let leg_ms = Array.of_list (List.map (fun l -> (l.Replay.l1 -. l.Replay.l0) *. 1000.) legs) in
    let self_of p = filter p recs |> Array.map (self spec ~prepare_ms) in
    let run_self = self_of is_run and write_self = self_of (fun r -> not (is_run r)) in
    line "  cluster.leg_ms                  %10.3f ms (n=%d)" (mean leg_ms) (Array.length leg_ms);
    line "  cluster.coordinator_self_ms     %10.3f ms (n=%d)" (mean run_self) (Array.length run_self);
    line "  cluster.write_self_ms           %10.3f ms (n=%d)" (mean write_self)
      (Array.length write_self)
  end;
  line "  in-process replay: %.3f s traced, %.3f s untraced" on.Replay.replay_s
    off.Replay.replay_s;
  (metrics, Buffer.contents buf, List.rev !failures)

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)
(* ------------------------------------------------------------------ *)

(* One root span per request around [handle_line], its children laid
   end to end from the root's start (decode, prepare estimate,
   response-reported engine and patch times), and one span per measured
   backend call. Written as JSON lines once the run is over. *)
let write_spans spec ~prep (on : Replay.t) path =
  let prepare_ms = prepare_estimate spec prep in
  let oc = open_out path in
  let base =
    if Array.length on.Replay.records = 0 then 0. else on.Replay.records.(0).Replay.h0
  in
  let span ~name ~req ~parent t0 t1 =
    output_string oc
      (Json.to_string
         (Json.Obj
            [ ("name", Json.Str name); ("req", Json.of_int req);
              ("parent", Json.Str parent);
              ("start_ms", Json.Num ((t0 -. base) *. 1000.));
              ("end_ms", Json.Num ((t1 -. base) *. 1000.)) ]));
    output_char oc '\n'
  in
  let root = if is_cluster spec then "coordinator.handle_line" else "server.handle_line" in
  Array.iteri
    (fun i (r : Replay.record) ->
      span ~name:root ~req:i ~parent:"" r.Replay.h0 r.Replay.h1;
      let at = ref r.Replay.h0 in
      List.iter
        (fun (name, v) ->
          if v > 0. && name <> "cluster.legs" then begin
            let t1 = Float.min r.Replay.h1 (!at +. (v /. 1000.)) in
            span ~name ~req:i ~parent:root !at t1;
            at := t1
          end)
        (children spec ~prepare_ms r);
      List.iter
        (fun l ->
          span ~name:("backend.send:" ^ l.Replay.worker) ~req:i ~parent:root l.Replay.l0
            l.Replay.l1)
        r.Replay.legs)
    on.Replay.records;
  close_out oc
