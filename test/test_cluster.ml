(* The fixq_cluster subsystem: rendezvous placement, seed
   partitioning (Theorem 3.2 soundness of scatter-gather), and the
   coordinator's routing / scatter / retry / failover behaviour over
   in-process workers (real [Server.t]s behind an injectable backend —
   the process-and-socket layer is exercised by the cram test). *)

module Xdm = Fixq_xdm
module Lang = Fixq_lang
module Service = Fixq_service
module Json = Service.Json
module Server = Service.Server
module Router = Fixq_cluster.Router
module Coordinator = Fixq_cluster.Coordinator

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Router                                                              *)
(* ------------------------------------------------------------------ *)

let names n = List.init n (Printf.sprintf "w%d")

let test_router_basic () =
  let r = Router.create ~workers:(names 4) ~replication:2 in
  checki "replication" 2 (Router.replication r);
  (* clamped *)
  checki "clamped" 4
    (Router.replication (Router.create ~workers:(names 4) ~replication:9));
  List.iter
    (fun key ->
      let ranking = Router.ranking r ~key in
      checki "ranking is a permutation" 4 (List.length ranking);
      checki "distinct" 4
        (List.length (List.sort_uniq compare ranking));
      checks "deterministic"
        (String.concat "," ranking)
        (String.concat "," (Router.ranking r ~key));
      let reps = Router.replicas r ~key in
      checki "replica count" 2 (List.length reps);
      checkb "replicas prefix ranking" true
        (reps = [ List.nth ranking 0; List.nth ranking 1 ]))
    [ "a.xml"; "b.xml"; "some/long/path.xml"; "" ]

(* the HRW property: removing a worker only moves keys that worker
   held; every other key keeps its exact replica set *)
let test_router_stability () =
  let before = Router.create ~workers:(names 5) ~replication:2 in
  let after = Router.create ~workers:(names 4) ~replication:2 in
  let keys = List.init 200 (Printf.sprintf "doc-%d.xml") in
  let moved = ref 0 in
  List.iter
    (fun key ->
      let b = Router.replicas before ~key in
      if List.mem "w4" b then incr moved
      else
        checks ("stable " ^ key) (String.concat "," b)
          (String.concat "," (Router.replicas after ~key)))
    keys;
  (* sanity: the removed worker did hold some replicas *)
  checkb "w4 held some keys" true (!moved > 0);
  (* and roughly its fair share: 2/5 of all replica slots *)
  checkb "roughly fair share" true (!moved < 160)

let test_router_spread () =
  let r = Router.create ~workers:(names 4) ~replication:1 in
  let counts = Hashtbl.create 4 in
  List.iter
    (fun key ->
      let w = List.hd (Router.replicas r ~key) in
      Hashtbl.replace counts w
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts w)))
    (List.init 400 (Printf.sprintf "k%d"));
  Hashtbl.iter
    (fun w n ->
      checkb (Printf.sprintf "%s gets a reasonable share (%d)" w n) true
        (n > 40 && n < 250))
    counts

(* ------------------------------------------------------------------ *)
(* Seed partitioning (the paper's Theorem 3.2, operationally)          *)
(* ------------------------------------------------------------------ *)

let tree_xml =
  "<r><a><b><c/><c/></b><b><c/></b></a><a><b><c/></b></a></r>"

let make_registry () =
  let registry = Xdm.Doc_registry.create () in
  Xdm.Doc_registry.register ~registry "t.xml"
    (Xdm.Xml_parser.parse_string ~uri:"t.xml" tree_xml);
  registry

let closure_query = {|with $x seeded by doc("t.xml")/r/* recurse $x/*|}

let test_partition_union_equals_whole () =
  let registry = make_registry () in
  let program = Lang.Parser.parse_program closure_query in
  let engine = Fixq.Interpreter Fixq.Auto in
  let whole = (Fixq.run_program ~registry ~engine program).Fixq.result in
  List.iter
    (fun count ->
      let slices =
        List.init count (fun index ->
            let p = Fixq.partition_first_seed ~index ~count program in
            (Fixq.run_program ~registry ~engine p).Fixq.result)
      in
      let union = Xdm.Item.ddo (List.concat slices) in
      checks
        (Printf.sprintf "union of %d slices = whole" count)
        (Xdm.Serializer.seq_to_string whole)
        (Xdm.Serializer.seq_to_string union))
    [ 1; 2; 3; 5 ]

let test_partition_validation () =
  let program = Lang.Parser.parse_program closure_query in
  let invalid index count =
    match Fixq.partition_first_seed ~index ~count program with
    | _ -> Alcotest.failf "expected rejection of %d/%d" index count
    | exception Fixq.Error _ -> ()
  in
  invalid (-1) 2;
  invalid 2 2;
  invalid 0 0;
  match
    Fixq.partition_first_seed ~index:0 ~count:2
      (Lang.Parser.parse_program "1 + 2")
  with
  | _ -> Alcotest.fail "expected rejection of IFP-free program"
  | exception Fixq.Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Coordinator over in-process workers                                 *)
(* ------------------------------------------------------------------ *)

(* Real servers, injectable transport: [failing name] makes every send
   to [name] fail like a torn connection; removing it heals the link.
   [add_worker]/[retire_worker] grow and shrink the in-process fleet;
   [kill_worker] models SIGKILL + supervisor respawn: the state is
   lost, a fresh empty server takes the name, and [on_worker_respawn]
   fires from a background thread (queueing on the coordinator's
   document lock exactly like the real health thread would). *)
type harness = {
  mutable servers : (string * Server.t) list;
  failing : (string, unit) Hashtbl.t;
  mutable sends : (string * string) list;  (** (worker, line), newest first *)
  mutable respawns : Thread.t list;
  coordinator : Coordinator.t;
}

let make_harness ?config ~workers () =
  let servers =
    List.init workers (fun i -> (Printf.sprintf "w%d" i, Server.create ()))
  in
  let failing = Hashtbl.create 4 in
  let h = ref None in
  let next = ref workers in
  let send name ~timeout_ms:_ line =
    let harness = Option.get !h in
    harness.sends <- (name, line) :: harness.sends;
    if Hashtbl.mem failing name then Error "injected failure"
    else
      match List.assoc_opt name harness.servers with
      | None -> Error ("unknown worker " ^ name)
      | Some s ->
        let (resp, _) = Server.handle_line s line in
        Ok resp
  in
  let add_worker () =
    let harness = Option.get !h in
    let name = Printf.sprintf "w%d" !next in
    incr next;
    harness.servers <- harness.servers @ [ (name, Server.create ()) ];
    Ok name
  in
  let retire_worker name =
    let harness = Option.get !h in
    harness.servers <- List.filter (fun (n, _) -> n <> name) harness.servers
  in
  let kill_worker name =
    let harness = Option.get !h in
    Hashtbl.replace failing name ();
    let th =
      Thread.create
        (fun () ->
          Thread.delay 0.05;
          harness.servers <-
            List.map
              (fun (n, s) -> if n = name then (n, Server.create ()) else (n, s))
              harness.servers;
          Hashtbl.remove failing name;
          Coordinator.on_worker_respawn harness.coordinator name)
        ()
    in
    harness.respawns <- th :: harness.respawns
  in
  let backend =
    { Coordinator.workers = List.map fst servers; send;
      info = (fun _ -> []); restarts = (fun () -> 0); stop = ignore;
      add_worker; retire_worker; kill_worker }
  in
  let config =
    Option.value
      ~default:{ Coordinator.default_config with backoff_ms = 1. }
      config
  in
  let harness =
    { servers; failing; sends = []; respawns = [];
      coordinator = Coordinator.create ~config backend }
  in
  h := Some harness;
  harness

(* wait for in-flight kill/respawn threads *)
let settle h =
  List.iter Thread.join h.respawns;
  h.respawns <- []

let request h line =
  let (resp, _) = Coordinator.handle_line h.coordinator line in
  Json.parse resp

let ok j = Json.bool_opt (Json.member "ok" j) = Some true
let str name j = Option.value ~default:"" (Json.str_opt (Json.member name j))

let load_line =
  Printf.sprintf {|{"op":"load-doc","uri":"t.xml","xml":%s}|}
    (Json.to_string (Json.Str tree_xml))

let run_line ?(extra = "") query =
  Printf.sprintf {|{"op":"run","query":%s%s}|}
    (Json.to_string (Json.Str query))
    extra

(* what a single process answers, for parity checks *)
let single_process_result query =
  let server = Server.create () in
  let (_, _) = Server.handle_line server load_line in
  let (resp, _) = Server.handle_line server (run_line query) in
  let j = Json.parse resp in
  checkb "single-process run ok" true (ok j);
  str "result" j

let test_coordinator_load_replication () =
  let h = make_harness ~workers:4 () in
  let j = request h load_line in
  checkb "load ok" true (ok j);
  let holders =
    List.filter
      (fun (_, s) -> Service.Store.uris (Server.store s) = [ "t.xml" ])
      h.servers
  in
  checki "document on exactly replication-many workers" 2
    (List.length holders)

let test_coordinator_routing_deterministic () =
  let h = make_harness ~workers:4 () in
  ignore (request h load_line);
  (* non-distributive: predicate mentions $x, so Figure 5 refuses and
     the query routes whole *)
  let q = {|with $x seeded by doc("t.xml")/r recurse doc("t.xml")//b[$x]|} in
  let j1 = request h (run_line q) in
  let j2 = request h (run_line q) in
  checkb "ok" true (ok j1 && ok j2);
  checkb "routed, not scattered" true
    (Json.member "scatter" j1 = Json.Null);
  checkb "worker reported" true (str "worker" j1 <> "");
  checks "same worker both times" (str "worker" j1) (str "worker" j2)

let test_coordinator_scatter_parity () =
  let h = make_harness ~workers:3 () in
  ignore (request h load_line);
  let j = request h (run_line closure_query) in
  checkb "ok" true (ok j);
  checki "two legs (replication 2)" 2
    (Option.value ~default:0
       (Json.int_opt (Json.member "legs" (Json.member "scatter" j))));
  checks "scatter-gather equals single process"
    (single_process_result closure_query)
    (str "result" j)

let test_coordinator_scatter_respects_optout () =
  let h =
    make_harness
      ~config:{ Coordinator.default_config with scatter = false }
      ~workers:3 ()
  in
  ignore (request h load_line);
  let j = request h (run_line closure_query) in
  checkb "ok" true (ok j);
  checkb "no scatter when disabled" true (Json.member "scatter" j = Json.Null);
  checks "still the right answer"
    (single_process_result closure_query)
    (str "result" j)

(* a dead scatter leg falls back to one whole-query run on a live
   worker: the client still gets exactly one correct answer *)
let test_coordinator_failover () =
  let h = make_harness ~workers:3 () in
  ignore (request h load_line);
  let reps =
    Router.replicas (Coordinator.router h.coordinator) ~key:"t.xml"
  in
  Hashtbl.replace h.failing (List.hd reps) ();
  let j = request h (run_line closure_query) in
  checkb "ok despite dead replica" true (ok j);
  checkb "fell back from scatter" true (Json.member "scatter" j = Json.Null);
  checks "answer unchanged" (single_process_result closure_query)
    (str "result" j);
  let stats = Json.member "stats" (request h {|{"op":"stats"}|}) in
  checkb "failover counted" true
    (Option.value ~default:0 (Json.int_opt (Json.member "failovers" stats))
     >= 1);
  checkb "dead worker marked" true
    (not
       (List.mem (List.hd reps)
          (Coordinator.alive_workers h.coordinator)))

let test_coordinator_respawn_replays_docs () =
  let h = make_harness ~workers:2 () in
  ignore (request h load_line);
  let victim =
    List.hd (Router.replicas (Coordinator.router h.coordinator) ~key:"t.xml")
  in
  Hashtbl.replace h.failing victim ();
  ignore (request h (run_line closure_query));
  checkb "victim dead" true
    (not (List.mem victim (Coordinator.alive_workers h.coordinator)));
  (* "respawn": heal the transport, then fire the supervisor hook *)
  Hashtbl.remove h.failing victim;
  h.sends <- [];
  Coordinator.on_worker_respawn h.coordinator victim;
  checkb "victim alive again" true
    (List.mem victim (Coordinator.alive_workers h.coordinator));
  let replayed =
    List.exists
      (fun (name, line) ->
        name = victim
        &&
        match Json.parse line with
        | j -> Json.str_opt (Json.member "op" j) = Some "load-doc"
        | exception Json.Parse_error _ -> false)
      h.sends
  in
  checkb "documents replayed on respawn" true replayed;
  (* and the healed worker serves scatter legs again *)
  let j = request h (run_line ~extra:{|,"cache":false|} closure_query) in
  checkb "scatter resumed" true (Json.member "scatter" j <> Json.Null);
  checks "answer unchanged" (single_process_result closure_query)
    (str "result" j)

(* A replay the respawned worker refuses does not make it a holder: the
   document was loaded from a file that is gone by the respawn, so the
   first-ranked replica comes back empty, and a routed run must fail
   over to the healthy replica instead of answering the empty worker's
   error. *)
let test_refused_replay_fails_over () =
  let h = make_harness ~workers:3 () in
  let path = Filename.temp_file "fixq-cluster" ".xml" in
  let oc = open_out_bin path in
  output_string oc tree_xml;
  close_out oc;
  checkb "load by path" true
    (ok
       (request h
          (Printf.sprintf {|{"op":"load-doc","uri":"t.xml","path":%s}|}
             (Json.to_string (Json.Str path)))));
  Sys.remove path;
  let (victim, healthy) =
    match Router.replicas (Coordinator.router h.coordinator) ~key:"t.xml" with
    | first :: second :: _ -> (first, second)
    | _ -> Alcotest.fail "expected two replicas"
  in
  h.servers <-
    List.map
      (fun (n, s) -> if n = victim then (n, Server.create ()) else (n, s))
      h.servers;
  Coordinator.on_worker_respawn h.coordinator victim;
  (* non-distributive: routes whole, to the first-ranked live worker *)
  let q = {|with $x seeded by doc("t.xml")/r recurse doc("t.xml")//b[$x]|} in
  let j = request h (run_line q) in
  checkb "routed run answers" true (ok j);
  checks "from the healthy replica" healthy (str "worker" j);
  checks "answer unchanged" (single_process_result q) (str "result" j)

(* ------------------------------------------------------------------ *)
(* Load-order soundness and atom results                               *)
(* ------------------------------------------------------------------ *)

let a_xml = "<r><p><q/><q/></p></r>"
let b_xml = "<r><s><u/></s><s/></r>"

(* seed spans both documents through a union, so its enumeration —
   which position()-mod-N slices — follows cross-document node-id
   order, i.e. each worker's local document load order *)
let multi_doc_query =
  {|with $x seeded by doc("a.xml")/r/* union doc("b.xml")/r/* recurse $x/*|}

let load_uri_line uri xml =
  Printf.sprintf {|{"op":"load-doc","uri":%s,"xml":%s}|}
    (Json.to_string (Json.Str uri))
    (Json.to_string (Json.Str xml))

(* what a single process answers after this exact load sequence *)
let single_process_after loads query =
  let server = Server.create () in
  List.iter (fun l -> ignore (Server.handle_line server l)) loads;
  let (resp, _) = Server.handle_line server (run_line query) in
  let j = Json.parse resp in
  checkb "single-process run ok" true (ok j);
  str "result" j

(* A worker holding documents out of the global load order must not
   serve scatter legs (its seed enumeration disagrees with its peers',
   so the slices would overlap or miss), and routed multi-document
   runs must prefer order-consistent workers. Reloading moves the
   document to the end of the global order on every replica, healing
   the divergence. *)
let test_scatter_excludes_out_of_order_worker () =
  let h = make_harness ~workers:2 () in
  (* replication 2 over 2 workers: both replicate everything — but w1
     is down while a.xml loads, so only w0 takes it *)
  Coordinator.mark_dead h.coordinator "w1";
  checkb "load a while w1 down" true
    (ok (request h (load_uri_line "a.xml" a_xml)));
  Coordinator.on_worker_respawn h.coordinator "w1" (* nothing to replay *);
  checkb "load b with both up" true
    (ok (request h (load_uri_line "b.xml" b_xml)));
  (* w1 holds only b.xml: shipping a.xml now would append it AFTER b,
     inverting the global order — so no scatter, and the whole query
     goes to the order-consistent worker *)
  let j = request h (run_line multi_doc_query) in
  checkb "ok" true (ok j);
  checkb "routed, not scattered" true (Json.member "scatter" j = Json.Null);
  checks "parity with a single process that loaded a then b"
    (single_process_after
       [ load_uri_line "a.xml" a_xml; load_uri_line "b.xml" b_xml ]
       multi_doc_query)
    (str "result" j);
  (* reloading a.xml re-ships it everywhere with a fresh sequence:
     both workers agree on the order (b before a) and scatter resumes *)
  checkb "reload a" true (ok (request h (load_uri_line "a.xml" a_xml)));
  let j = request h (run_line ~extra:{|,"cache":false|} multi_doc_query) in
  checkb "ok" true (ok j);
  checkb "scatter resumed after reload" true
    (Json.member "scatter" j <> Json.Null);
  checks "parity with a single process that loaded a, b, then a again"
    (single_process_after
       [ load_uri_line "a.xml" a_xml; load_uri_line "b.xml" b_xml;
         load_uri_line "a.xml" a_xml ]
       multi_doc_query)
    (str "result" j)

(* Respawn replay must follow the global load order, not hash-table
   fold order: the respawned worker's node-id order has to match its
   peers' or it cannot serve multi-document scatter legs. *)
let test_respawn_replay_order () =
  let h = make_harness ~workers:2 () in
  let uris = List.init 8 (Printf.sprintf "d%d.xml") in
  List.iter
    (fun uri ->
      checkb ("load " ^ uri) true (ok (request h (load_uri_line uri a_xml))))
    uris;
  (* replication 2 over 2 workers: w0 holds all eight *)
  h.sends <- [];
  Coordinator.on_worker_respawn h.coordinator "w0";
  let replayed =
    List.rev h.sends
    |> List.filter_map (fun (name, line) ->
           if name <> "w0" then None
           else
             match Json.parse line with
             | j when Json.str_opt (Json.member "op" j) = Some "load-doc" ->
               Json.str_opt (Json.member "uri" j)
             | _ -> None
             | exception Json.Parse_error _ -> None)
  in
  checks "replayed in load order" (String.concat "," uris)
    (String.concat "," replayed)

(* Distributive body, but the seed constructs nodes: constructed nodes
   have no portable identity (each scatter leg would build its own
   copies, and the gathered union could only order them by serialized
   content, not by the single process's document order), so the query
   must route whole — and still answer byte-identically. *)
let test_constructed_seed_routes_whole () =
  let h = make_harness ~workers:2 () in
  let q = {|with $x seeded by <r><c/></r> recurse $x/*|} in
  let c =
    request h
      (Printf.sprintf {|{"op":"check","query":%s}|}
         (Json.to_string (Json.Str q)))
  in
  checkb "body is distributive (scatter is only stopped by the seed)" true
    (Json.bool_opt (Json.member "syntactic" c) = Some true);
  let j = request h (run_line q) in
  checkb "ok" true (ok j);
  checkb "constructed seed routes whole" true
    (Json.member "scatter" j = Json.Null);
  checks "parity" (single_process_after [] q) (str "result" j)

let test_coordinator_retry_accounting () =
  let h = make_harness ~workers:2 () in
  ignore (request h load_line);
  let victim =
    List.hd (Router.replicas (Coordinator.router h.coordinator) ~key:"t.xml")
  in
  Hashtbl.replace h.failing victim ();
  let j = request h (run_line ~extra:{|,"cache":false|} closure_query) in
  checkb "still answered" true (ok j);
  let stats = Json.member "stats" (request h {|{"op":"stats"}|}) in
  checkb "retries counted" true
    (Option.value ~default:0 (Json.int_opt (Json.member "retries" stats)) >= 1)

let test_coordinator_parse_error_local () =
  let h = make_harness ~workers:2 () in
  let j = request h (run_line "with $x seeded") in
  checkb "not ok" true (not (ok j));
  checkb "parse error mentioned" true
    (String.length (str "error" j) > 0
    && String.sub (str "error" j) 0 5 = "parse");
  (* nothing was forwarded: the coordinator rejected locally *)
  checki "no worker saw it" 0 (List.length h.sends)

(* Failover during an in-flight scatter-gather, triggered by the
   deterministic chaos point rather than timing: the first leg's worker
   is killed after the legs launch, the gather falls back to one whole
   run on a survivor, and the answer is byte-identical. *)
let test_chaos_kill_mid_scatter () =
  let h = make_harness ~workers:3 () in
  ignore (request h load_line);
  (match Fixq_chaos.configure "seed=11,coordinator.scatter=kill@1" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Fun.protect ~finally:Fixq_chaos.reset (fun () ->
      let j = request h (run_line ~extra:{|,"cache":false|} closure_query) in
      checkb "ok despite leg killed in flight" true (ok j);
      checkb "gather fell back to a whole run" true
        (Json.member "scatter" j = Json.Null);
      checks "answer byte-identical to single process"
        (single_process_result closure_query)
        (str "result" j);
      checki "exactly one fault injected" 1 (Fixq_chaos.fired ());
      (match Fixq_chaos.events () with
      | [ e ] ->
        checks "fault at the scatter point" "coordinator.scatter"
          e.Fixq_chaos.point
      | _ -> Alcotest.fail "expected exactly one chaos event");
      checki "killed worker marked dead" 2
        (List.length (Coordinator.alive_workers h.coordinator));
      let stats = Json.member "stats" (request h {|{"op":"stats"}|}) in
      checkb "failover counted" true
        (Option.value ~default:0
           (Json.int_opt (Json.member "failovers" stats))
        >= 1))

(* ------------------------------------------------------------------ *)
(* Online rebalancing                                                   *)
(* ------------------------------------------------------------------ *)

let rebalance_uris = List.init 12 (Printf.sprintf "d%d.xml")

let load_fleet h =
  List.iter
    (fun u ->
      checkb ("load " ^ u) true (ok (request h (load_uri_line u a_xml))))
    rebalance_uris

let moved_of j =
  match Json.member "moved" j with
  | Json.List l -> List.filter_map Json.str_opt l |> List.sort compare
  | _ -> []

let doc_query uri =
  Printf.sprintf {|with $x seeded by doc(%s)/r/* recurse $x/*|}
    (Json.to_string (Json.Str uri))

(* parity of one moved document's query against a single process *)
let check_moved_doc_parity h uri =
  let j = request h (run_line ~extra:{|,"cache":false|} (doc_query uri)) in
  checkb ("post-rebalance run ok for " ^ uri) true (ok j);
  checks ("post-rebalance parity for " ^ uri)
    (single_process_after [ load_uri_line uri a_xml ] (doc_query uri))
    (str "result" j)

(* add-worker: the HRW property — the keys that move are exactly the
   keys whose replica set now includes the new worker *)
let test_add_worker_moves_exactly () =
  let h = make_harness ~workers:3 () in
  load_fleet h;
  let before = Coordinator.router h.coordinator in
  let j = request h {|{"op":"add-worker"}|} in
  checkb "add-worker ok" true (ok j);
  let name = str "worker" j in
  checks "supervisor names it w3" "w3" name;
  let after = Coordinator.router h.coordinator in
  checkb "routing includes the new worker" true
    (List.mem name (Router.workers after));
  let expected =
    List.filter
      (fun u -> Router.replicas before ~key:u <> Router.replicas after ~key:u)
      rebalance_uris
    |> List.sort compare
  in
  List.iter
    (fun u ->
      checkb ("every moved key gained " ^ name ^ ": " ^ u) true
        (List.mem name (Router.replicas after ~key:u)))
    expected;
  checkb "the new worker took some keys" true (expected <> []);
  checks "moved = exactly the keys whose replica set changed"
    (String.concat "," expected)
    (String.concat "," (moved_of j));
  checki "nothing left pending" 0
    (match Json.member "pending" j with
    | Json.List l -> List.length l
    | _ -> 0);
  check_moved_doc_parity h (List.hd expected)

(* drain: the keys that move are exactly the drained worker's keys;
   the worker leaves the routing table but stays a member *)
let test_drain_moves_its_keys () =
  let h = make_harness ~workers:3 () in
  load_fleet h;
  let before = Coordinator.router h.coordinator in
  let victim = "w1" in
  let expected =
    List.filter
      (fun u -> List.mem victim (Router.replicas before ~key:u))
      rebalance_uris
    |> List.sort compare
  in
  let j = request h {|{"op":"drain","worker":"w1"}|} in
  checkb "drain ok" true (ok j);
  checks "moved = exactly the drained worker's keys"
    (String.concat "," expected)
    (String.concat "," (moved_of j));
  let after = Coordinator.router h.coordinator in
  checkb "victim out of the routing table" true
    (not (List.mem victim (Router.workers after)));
  checkb "victim still a member (running, unrouted)" true
    (List.mem victim (Coordinator.current_workers h.coordinator));
  (* every survivor key kept its exact replica set: the HRW property *)
  List.iter
    (fun u ->
      if not (List.mem u expected) then
        checks ("stable " ^ u)
          (String.concat "," (Router.replicas before ~key:u))
          (String.concat "," (Router.replicas after ~key:u)))
    rebalance_uris;
  check_moved_doc_parity h (List.hd expected);
  let stats = Json.member "stats" (request h {|{"op":"stats"}|}) in
  let drained_flags =
    match Json.member "workers" stats with
    | Json.List rows ->
      List.filter_map
        (fun r ->
          if Json.str_opt (Json.member "name" r) = Some victim then
            Json.bool_opt (Json.member "drained" r)
          else None)
        rows
    | _ -> []
  in
  checkb "stats marks the worker drained" true (drained_flags = [ true ])

let test_remove_worker_retires () =
  let h = make_harness ~workers:3 () in
  load_fleet h;
  let j = request h {|{"op":"remove-worker","worker":"w2"}|} in
  checkb "remove ok" true (ok j);
  checkb "membership shrank" true
    (not (List.mem "w2" (Coordinator.current_workers h.coordinator)));
  checkb "backend retired the server" true
    (not (List.mem_assoc "w2" h.servers));
  check_moved_doc_parity h (List.hd (moved_of j));
  (* the last worker cannot be drained away *)
  ignore (request h {|{"op":"remove-worker","worker":"w1"}|});
  let j = request h {|{"op":"remove-worker","worker":"w0"}|} in
  checkb "last worker refuses" true (not (ok j))

(* patch past the threshold: the history folds into one materialized
   load line, so a respawn replays 1 line instead of load + patches —
   and the replayed document still answers byte-identically *)
let test_compaction_after_patches () =
  let h =
    make_harness
      ~config:
        { Coordinator.default_config with backoff_ms = 1.; compact_patches = 3 }
      ~workers:2 ()
  in
  checkb "load" true (ok (request h (load_uri_line "t.xml" tree_xml)));
  let patch =
    {|{"op":"patch-doc","uri":"t.xml","action":"insert","path":"/r","xml":"<z/>"}|}
  in
  for i = 1 to 5 do
    checkb (Printf.sprintf "patch %d" i) true (ok (request h patch))
  done;
  let stats = Json.member "stats" (request h {|{"op":"stats"}|}) in
  checkb "compaction counted" true
    (Option.value ~default:0 (Json.int_opt (Json.member "compactions" stats))
     >= 1);
  (* respawn: the replay must be ONE load-doc line, no patch lines *)
  h.sends <- [];
  Coordinator.on_worker_respawn h.coordinator "w0";
  let (loads, patches) =
    List.fold_left
      (fun (l, p) (name, line) ->
        if name <> "w0" then (l, p)
        else
          match Json.parse line with
          | j when Json.str_opt (Json.member "op" j) = Some "load-doc" ->
            (l + 1, p)
          | j when Json.str_opt (Json.member "op" j) = Some "patch-doc" ->
            (l, p + 1)
          | _ -> (l, p)
          | exception Json.Parse_error _ -> (l, p))
      (0, 0) h.sends
  in
  checki "one materialized load replayed" 1 loads;
  checki "no patch lines replayed" 0 patches;
  let j = request h (run_line ~extra:{|,"cache":false|} closure_query) in
  checkb "run ok after respawn from compacted history" true (ok j);
  checks "parity with a single process that loaded and patched"
    (single_process_after
       [ load_uri_line "t.xml" tree_xml; patch; patch; patch; patch; patch ]
       closure_query)
    (str "result" j)

(* chaos kill of a move's destination: the rebalance retries after the
   "supervisor" respawns the worker, finishes, and answers match *)
let test_chaos_rebalance_kill_recovers () =
  let h = make_harness ~workers:2 () in
  load_fleet h;
  (match Fixq_chaos.configure "seed=7,coordinator.rebalance=kill@1" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Fun.protect ~finally:Fixq_chaos.reset (fun () ->
      let j = request h {|{"op":"add-worker"}|} in
      checkb "add-worker ok despite mid-move kill" true (ok j);
      checki "exactly one fault injected" 1 (Fixq_chaos.fired ());
      (match Fixq_chaos.events () with
      | [ e ] ->
        checks "fault at the rebalance point" "coordinator.rebalance"
          e.Fixq_chaos.point
      | _ -> Alcotest.fail "expected exactly one chaos event");
      let moved = moved_of j in
      checkb "keys still moved" true (moved <> []);
      checki "no move abandoned" 0
        (match Json.member "pending" j with
        | Json.List l -> List.length l
        | _ -> 0);
      settle h;
      List.iter (check_moved_doc_parity h) moved)

let () =
  Alcotest.run "cluster"
    [ ("router",
       [ Alcotest.test_case "basic" `Quick test_router_basic;
         Alcotest.test_case "join/leave stability" `Quick
           test_router_stability;
         Alcotest.test_case "spread" `Quick test_router_spread ]);
      ("partition",
       [ Alcotest.test_case "union of slices = whole" `Quick
           test_partition_union_equals_whole;
         Alcotest.test_case "validation" `Quick test_partition_validation ]);
      ("coordinator",
       [ Alcotest.test_case "load-doc replication" `Quick
           test_coordinator_load_replication;
         Alcotest.test_case "deterministic routing" `Quick
           test_coordinator_routing_deterministic;
         Alcotest.test_case "scatter parity" `Quick
           test_coordinator_scatter_parity;
         Alcotest.test_case "scatter opt-out" `Quick
           test_coordinator_scatter_respects_optout;
         Alcotest.test_case "failover exactly-once" `Quick
           test_coordinator_failover;
         Alcotest.test_case "respawn replays documents" `Quick
           test_coordinator_respawn_replays_docs;
         Alcotest.test_case "out-of-order worker excluded from scatter"
           `Quick test_scatter_excludes_out_of_order_worker;
         Alcotest.test_case "refused replay fails over" `Quick
           test_refused_replay_fails_over;
         Alcotest.test_case "respawn replays in load order" `Quick
           test_respawn_replay_order;
         Alcotest.test_case "constructed seed routes whole" `Quick
           test_constructed_seed_routes_whole;
         Alcotest.test_case "retry accounting" `Quick
           test_coordinator_retry_accounting;
         Alcotest.test_case "local parse errors" `Quick
           test_coordinator_parse_error_local;
         Alcotest.test_case "chaos kill mid-scatter fails over" `Quick
           test_chaos_kill_mid_scatter ]);
      ("rebalance",
       [ Alcotest.test_case "add-worker moves exactly the gained keys"
           `Quick test_add_worker_moves_exactly;
         Alcotest.test_case "drain moves exactly the drained keys" `Quick
           test_drain_moves_its_keys;
         Alcotest.test_case "remove-worker retires" `Quick
           test_remove_worker_retires;
         Alcotest.test_case "patch history compacts" `Quick
           test_compaction_after_patches;
         Alcotest.test_case "chaos kill mid-move recovers" `Quick
           test_chaos_rebalance_kill_recovers ]) ]
