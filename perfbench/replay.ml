(* The traced run: replay a workload's request streams in-process,
   through the layers' public functions, timing the calls into them.

   A serve workload runs on a [Server.t]; the cluster workload runs a
   [Coordinator] over in-process [Server.t] backends (the shape of the
   cluster unit-test harness), whose [send] is wrapped in a span per
   backend call. Spans live in memory and are written out at the end. *)

module Json = Fixq_service.Json
module Server = Fixq_service.Server
module Protocol = Fixq_service.Protocol
module Prepared = Fixq_service.Prepared
module Store = Fixq_service.Store
module Coordinator = Fixq_cluster.Coordinator

type leg = { worker : string; l0 : float; l1 : float; l_resp : Resp.t }

type record = {
  r : Spec.req;
  h0 : float;
  h1 : float;  (** the [handle_line] call *)
  decode : float;  (** seconds in Json.parse + Protocol.parse_request *)
  resp : Resp.t;
  legs : leg list;  (** cluster backend calls made for this request *)
  snapshot : bool;  (** the store's snapshot count advanced during it *)
  wal_delta : int;  (** WAL bytes appended (plain writes only) *)
  compaction : bool;  (** the coordinator compacted during it *)
}

type t = {
  records : record array;
  generate_s : float;
  warm_s : float;
  replay_s : float;  (** wall time of the main and write phases *)
  stats_before : Json.t;  (** [stats] after set-up (JSON) *)
  stats_after : Json.t;
  prom_after : string;  (** Prometheus exposition at the end *)
  worker_stats : (Json.t * Json.t) list;  (** per backend, before/after *)
  snapshot_ms : float list;  (** timed [Server.force_snapshot] calls *)
  nodes : (string * string * string) list;
      (** (uri, node count after set-up, node count at the end) of each
          edited (auction) document *)
}

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Targets                                                              *)
(* ------------------------------------------------------------------ *)

type target = {
  handle : string -> string;
  stats : unit -> Json.t;
  prometheus : unit -> string;
  workers : unit -> (string * Server.t) list;
  legs : unit -> leg list;  (** drain the backend calls recorded so far *)
  single : Server.t option;
}

let server_config (spec : Spec.t) ~dir =
  match spec.Spec.server with
  | Spec.Serve { durable; _ } ->
    { Server.default_config with
      state_dir = (if durable then Some (Filename.concat dir "state") else None);
      snapshot_threshold = Spec.snapshot_threshold }
  | Spec.Cluster _ -> Server.default_config

let stats_of line =
  Json.member "stats" (Json.parse line)

let serve_target spec ~dir =
  let server = Server.create ~config:(server_config spec ~dir) () in
  let handle line = fst (Server.handle_line server line) in
  { handle;
    stats = (fun () -> stats_of (handle {|{"op":"stats"}|}));
    prometheus = (fun () -> Server.prometheus_stats server);
    workers = (fun () -> [ ("server", server) ]);
    legs = (fun () -> []);
    single = Some server }

let cluster_target ~workers ~replication =
  let servers =
    List.init workers (fun i -> (Printf.sprintf "w%d" i, Server.create ()))
  in
  let lock = Mutex.create () in
  let recorded = ref [] in
  let recording = ref true in
  let send name ~timeout_ms:_ line =
    match List.assoc_opt name servers with
    | None -> Error ("unknown worker " ^ name)
    | Some s ->
      let l0 = now () in
      let resp, _ = Server.handle_line s line in
      let l1 = now () in
      if !recording then begin
        let leg = { worker = name; l0; l1; l_resp = Resp.of_line resp } in
        Mutex.lock lock;
        recorded := leg :: !recorded;
        Mutex.unlock lock
      end;
      Ok resp
  in
  let backend =
    { Coordinator.workers = List.map fst servers; send;
      info = (fun _ -> []); restarts = (fun () -> 0); stop = ignore;
      add_worker = (fun () -> Error "fixed membership");
      retire_worker = ignore; kill_worker = ignore }
  in
  let coordinator =
    Coordinator.create
      ~config:{ Coordinator.default_config with replication }
      backend
  in
  let handle line = fst (Coordinator.handle_line coordinator line) in
  let quiet f =
    recording := false;
    Fun.protect ~finally:(fun () -> recording := true) f
  in
  { handle;
    stats = (fun () -> quiet (fun () -> stats_of (handle {|{"op":"stats"}|})));
    prometheus =
      (fun () ->
        quiet (fun () ->
            Option.value ~default:""
              (Json.str_opt
                 (Json.member "prometheus"
                    (Json.parse (handle {|{"op":"stats","format":"prometheus"}|}))))));
    workers = (fun () -> servers);
    legs =
      (fun () ->
        Mutex.lock lock;
        let l = List.rev !recorded in
        recorded := [];
        Mutex.unlock lock;
        l);
    single = None }

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

let int name j = Option.value ~default:0 (Json.int_opt (Json.member name j))

(* Interleave the connections' streams round-robin: the in-process
   replay is sequential. *)
let interleave (streams : Spec.req list array) =
  let queues = Array.map (fun l -> ref l) streams in
  let out = ref [] in
  let progress = ref true in
  while !progress do
    progress := false;
    Array.iter
      (fun q ->
        match !q with
        | x :: rest ->
          out := x :: !out;
          q := rest;
          progress := true
        | [] -> ())
      queues
  done;
  List.rev !out

let durable_counts target =
  let d = Json.member "durability" (target.stats ()) in
  (int "snapshots" d, int "wal_bytes" d)

let compactions target = int "compactions" (target.stats ())

(* [run spec ~dir ~traced] replays set-up, the main phase and the write
   phase of [spec]. With [traced], each request is preceded by a
   separate timing of its decode and followed by the per-write counter
   reads; without, only the [handle_line] calls run back to back. *)
let run (spec : Spec.t) ~dir ~traced =
  Proc.mkdir_p dir;
  let target =
    match spec.Spec.server with
    | Spec.Serve _ -> serve_target spec ~dir
    | Spec.Cluster { workers; replication } -> cluster_target ~workers ~replication
  in
  let durable =
    match spec.Spec.server with Spec.Serve { durable; _ } -> durable | _ -> false
  in
  let cluster = match spec.Spec.server with Spec.Cluster _ -> true | _ -> false in
  let t0 = now () in
  List.iter (fun d -> ignore (target.handle (Spec.load_line d))) spec.Spec.docs;
  let generate_s = now () -. t0 in
  let t0 = now () in
  List.iter (fun (r : Spec.req) -> ignore (target.handle r.Spec.line)) spec.Spec.warm;
  let warm_s = now () -. t0 in
  let node_counts () =
    List.filter_map
      (fun (d : Spec.doc) ->
        if d.Spec.gen <> "xmark" then None
        else
          let j =
            Json.parse
              (target.handle
                 (Spec.run_line ~cache:false (Spec.node_count_query d.Spec.uri)))
          in
          Some (d.Spec.uri, Option.value ~default:"" (Json.str_opt (Json.member "result" j))))
      spec.Spec.docs
  in
  let nodes_before = node_counts () in
  ignore (target.legs ());
  let stats_before = target.stats () in
  let worker_stats () =
    List.map
      (fun (_, s) -> stats_of (fst (Server.handle_line s {|{"op":"stats"}|})))
      (target.workers ())
  in
  let worker_before = worker_stats () in
  let stream = interleave spec.Spec.main @ spec.Spec.writes in
  let records = ref [] in
  let counters = ref (if traced && durable then durable_counts target else (0, 0)) in
  let comps = ref (if traced && cluster then compactions target else 0) in
  let start = now () in
  List.iter
    (fun (r : Spec.req) ->
      let decode =
        if traced then begin
          let d0 = now () in
          (match Json.parse r.Spec.line with
          | j -> ignore (Protocol.parse_request j)
          | exception Json.Parse_error _ -> ());
          now () -. d0
        end
        else 0.
      in
      let h0 = now () in
      let line = target.handle r.Spec.line in
      let h1 = now () in
      if traced then begin
        let legs = target.legs () in
        let snapshot, wal_delta =
          if durable && r.Spec.kind = Spec.Write then begin
            let (s0, w0) = !counters in
            let (s1, w1) = durable_counts target in
            counters := (s1, w1);
            (s1 > s0, if s1 > s0 then 0 else w1 - w0)
          end
          else (false, 0)
        in
        let compaction =
          if cluster && r.Spec.kind = Spec.Write then begin
            let c = compactions target in
            let advanced = c > !comps in
            comps := c;
            advanced
          end
          else false
        in
        records :=
          { r; h0; h1; decode; resp = Resp.of_line line; legs;
            snapshot; wal_delta; compaction }
          :: !records
      end)
    stream;
  let replay_s = now () -. start in
  let stats_after = target.stats () in
  let prom_after = target.prometheus () in
  let worker_after = worker_stats () in
  let snapshot_ms =
    match target.single with
    | Some s when traced && durable ->
      List.init 5 (fun _ ->
          let t0 = now () in
          ignore (Server.force_snapshot s);
          (now () -. t0) *. 1000.)
    | _ -> []
  in
  let nodes =
    List.map2 (fun (u, a) (_, b) -> (u, a, b)) nodes_before (node_counts ())
  in
  ignore (target.handle {|{"op":"shutdown"}|});
  let records = Array.of_list (List.rev !records) in
  { records; generate_s; warm_s; replay_s; stats_before;
    stats_after; prom_after;
    worker_stats = List.combine worker_before worker_after;
    snapshot_ms; nodes }

(* ------------------------------------------------------------------ *)
(* Prepare, part by part                                                *)
(* ------------------------------------------------------------------ *)

type prep_times = {
  prepare_ms : float;
  parse_ms : float;
  plan_ms : float;
  sql_ms : float;
  cost_ms : float;
}

(* Time [Prepared.prepare] and the public functions it is made of, once
   per distinct text, on a store holding the workload's documents. *)
let prepare_parts (spec : Spec.t) texts =
  let server = Server.create () in
  List.iter (fun d -> ignore (Server.handle_line server (Spec.load_line d))) spec.Spec.docs;
  let store = Server.store server in
  let registry = Store.registry store in
  let ms f =
    let t0 = now () in
    let x = f () in
    (x, (now () -. t0) *. 1000.)
  in
  List.map
    (fun text ->
      let p, prepare_ms =
        ms (fun () ->
            Prepared.prepare ~store ~stratified:false ~max_iterations:100_000 text)
      in
      let (program, _), parse_ms =
        ms (fun () -> Fixq.Lang.Parser.parse_program_spans text)
      in
      let _, plan_ms =
        ms (fun () -> Fixq.plan_of_first_ifp ~registry ~max_iterations:100_000 program)
      in
      let _, sql_ms =
        ms (fun () -> Fixq.sql_of_first_ifp ~registry ~max_iterations:100_000 program)
      in
      let _, cost_ms =
        ms (fun () ->
            Fixq_cost.Estimate.analyze ~registry ~spans:p.Prepared.spans
              ~compiled:
                (if p.Prepared.ifp_count = 0 then None
                 else Some (p.Prepared.plan <> None))
              ~sql_renderable:(Option.map Result.is_ok p.Prepared.sql)
              ~algebra_delta:(p.Prepared.algebraic = Some true)
              ~interp_delta:p.Prepared.syntactic p.Prepared.program)
      in
      (text, { prepare_ms; parse_ms; plan_ms; sql_ms; cost_ms }))
    texts
