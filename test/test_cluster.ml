(* The fixq_cluster subsystem: rendezvous placement, Theorem 3.2 on
   the workload families (the union of seed slices equals the whole),
   and the coordinator's routing / retry / failover behaviour over
   in-process workers (real [Server.t]s behind an injectable backend —
   the process-and-socket layer is exercised by the cram test). *)

module Xdm = Fixq_xdm
module Lang = Fixq_lang
module Service = Fixq_service
module Json = Service.Json
module Server = Service.Server
module Router = Fixq_cluster.Router
module Coordinator = Fixq_cluster.Coordinator
module W = Fixq_workloads

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
(* Theorem 3.2: a distributive IFP is the union of its seed slices      *)
(* ------------------------------------------------------------------ *)

let tree_xml =
  "<r><a><b><c/><c/></b><b><c/></b></a><a><b><c/></b></a></r>"

let closure_query = {|with $x seeded by doc("t.xml")/r/* recurse $x/*|}

(* The four workload families as (prolog, seed, body), each seed
   holding many nodes so that every slice is a real part of it. *)
let families =
  [ ("", {|doc("curriculum.xml")/curriculum/course|},
     {|$x/id(./prerequisites/pre_code)|});
    ({|declare variable $doc := doc("auction.xml");
declare function bidder ($in as node()*) as node()*
{ for $id in $in/@id
  let $b := $doc//open_auction[seller/@person = $id]/bidder/personref
  return $doc//people/person[@id = $b/@person]
};
|},
     {|$doc//people/person|}, {|bidder($x)|});
    ({|declare variable $doc := doc("romeo.xml");
|},
     {|$doc//SPEECH[not(preceding-sibling::SPEECH[1]/SPEAKER != SPEAKER)]|},
     {|for $s in $x
return $s/following-sibling::SPEECH[1][SPEAKER != $s/SPEAKER]|});
    ({|declare variable $doc := doc("hospital.xml");
|},
     {|$doc/hospital/patient|}, {|$x/parents/patient|}) ]

(* The slices are written into the query text: the i-th of n keeps the
   seed items whose position is i modulo n. *)
let test_partition_union_equals_whole () =
  let registry = Xdm.Doc_registry.create () in
  let seed = 7 in
  ignore
    (W.Curriculum.load ~registry
       { W.Curriculum.default with W.Curriculum.courses = 60; seed });
  ignore
    (W.Xmark.load ~registry
       { W.Xmark.default with W.Xmark.scale = 0.002; seed });
  ignore
    (W.Shakespeare.load ~registry
       { W.Shakespeare.default with W.Shakespeare.acts = 2; seed });
  ignore
    (W.Hospital.load ~registry
       { W.Hospital.default with W.Hospital.total = 120; seed });
  let run mode src =
    (Fixq.run ~registry ~engine:(Fixq.Interpreter mode) src).Fixq.result
  in
  List.iter
    (fun (prolog, seed, body) ->
      let query seed =
        Printf.sprintf "%swith $x seeded by %s recurse %s" prolog seed body
      in
      List.iter
        (fun mode ->
          let whole = run mode (query ("(" ^ seed ^ ")")) in
          checkb ("whole result is not empty: " ^ seed) true (whole <> []);
          List.iter
            (fun n ->
              let slices =
                List.init n (fun i ->
                    run mode
                      (query
                         (Printf.sprintf "(%s)[(position() - 1) mod %d = %d]"
                            seed n i)))
              in
              checks
                (Printf.sprintf "union of %d slices = whole: %s" n seed)
                (Xdm.Serializer.seq_to_string whole)
                (Xdm.Serializer.seq_to_string
                   (Xdm.Item.ddo (List.concat slices))))
            [ 2; 3 ])
        [ Fixq.Naive; Fixq.Delta ])
    families

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
  let q = {|with $x seeded by doc("t.xml")/r recurse doc("t.xml")//b[$x]|} in
  let j1 = request h (run_line q) in
  let j2 = request h (run_line q) in
  checkb "ok" true (ok j1 && ok j2);
  checkb "worker reported" true (str "worker" j1 <> "");
  checks "same worker both times" (str "worker" j1) (str "worker" j2)

let test_coordinator_closure_parity () =
  let h = make_harness ~workers:3 () in
  ignore (request h load_line);
  let j = request h (run_line closure_query) in
  checkb "ok" true (ok j);
  checkb "one worker answers" true (str "worker" j <> "");
  checks "cluster equals single process"
    (single_process_result closure_query)
    (str "result" j)

(* a dead first replica fails over to a live worker: the client still
   gets exactly one correct answer *)
let test_coordinator_failover () =
  let h = make_harness ~workers:3 () in
  ignore (request h load_line);
  let reps =
    Router.replicas (Coordinator.router h.coordinator) ~key:"t.xml"
  in
  Hashtbl.replace h.failing (List.hd reps) ();
  let j = request h (run_line closure_query) in
  checkb "ok despite dead replica" true (ok j);
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
  (* and the healed worker, first in the ranking, serves runs again *)
  let j = request h (run_line ~extra:{|,"cache":false|} closure_query) in
  checks "victim serves again" victim (str "worker" j);
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

(* seed spans both documents through a union, so its result order
   follows cross-document node-id order, i.e. each worker's local
   document load order *)
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

(* A routed multi-document run must prefer a worker holding the
   documents in the global load order: another would serialize them in
   a different order. Reloading moves the document to the end of the
   global order on every replica, healing the divergence. *)
let test_out_of_order_worker_passed_over () =
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
     inverting the global order — so the query goes to w0 *)
  let j = request h (run_line multi_doc_query) in
  checkb "ok" true (ok j);
  checks "order-consistent worker" "w0" (str "worker" j);
  checks "parity with a single process that loaded a then b"
    (single_process_after
       [ load_uri_line "a.xml" a_xml; load_uri_line "b.xml" b_xml ]
       multi_doc_query)
    (str "result" j);
  (* reloading a.xml re-ships it everywhere with a fresh sequence:
     both workers agree on the order (b before a) *)
  checkb "reload a" true (ok (request h (load_uri_line "a.xml" a_xml)));
  let j = request h (run_line ~extra:{|,"cache":false|} multi_doc_query) in
  checkb "ok" true (ok j);
  checks "parity with a single process that loaded a, b, then a again"
    (single_process_after
       [ load_uri_line "a.xml" a_xml; load_uri_line "b.xml" b_xml;
         load_uri_line "a.xml" a_xml ]
       multi_doc_query)
    (str "result" j)

(* Respawn replay must follow the global load order, not hash-table
   fold order: the respawned worker's node-id order has to match the
   global one or routed multi-document runs pass it over. *)
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

(* Distributive body over a constructed seed: one worker builds the
   nodes and answers byte-identically to a single process. *)
let test_constructed_seed_routes_whole () =
  let h = make_harness ~workers:2 () in
  let q = {|with $x seeded by <r><c/></r> recurse $x/*|} in
  let c =
    request h
      (Printf.sprintf {|{"op":"check","query":%s}|}
         (Json.to_string (Json.Str q)))
  in
  checkb "body is distributive" true
    (Json.bool_opt (Json.member "syntactic" c) = Some true);
  let j = request h (run_line q) in
  checkb "ok" true (ok j);
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

(* The exposition declares every metric once, and the coordinator's
   retry counter is the one README documents, agreeing with stats. *)
let test_coordinator_prometheus_metrics () =
  let h = make_harness ~workers:2 () in
  ignore (request h load_line);
  let victim =
    List.hd (Router.replicas (Coordinator.router h.coordinator) ~key:"t.xml")
  in
  Hashtbl.replace h.failing victim ();
  checkb "answered" true
    (ok (request h (run_line ~extra:{|,"cache":false|} closure_query)));
  Hashtbl.remove h.failing victim;
  let stats = Json.member "stats" (request h {|{"op":"stats"}|}) in
  let retries = Option.get (Json.int_opt (Json.member "retries" stats)) in
  checkb "a retry happened" true (retries >= 1);
  let lines =
    String.split_on_char '\n'
      (str "prometheus" (request h {|{"op":"stats","format":"prometheus"}|}))
  in
  let typed =
    List.filter_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "#"; "TYPE"; name; _ ] -> Some name
        | _ -> None)
      lines
  in
  List.iter
    (fun name ->
      checki ("one # TYPE line for " ^ name) 1
        (List.length (List.filter (String.equal name) typed)))
    (List.sort_uniq compare typed);
  checkb "no duplicate retry counter" false
    (List.mem "fixq_cluster_retries_total" typed);
  checks "fixq_retries_total = stats retries"
    ("fixq_retries_total " ^ string_of_int retries)
    (List.find (String.starts_with ~prefix:"fixq_retries_total ") lines)

let test_coordinator_parse_error_local () =
  let h = make_harness ~workers:2 () in
  let j = request h (run_line "with $x seeded") in
  checkb "not ok" true (not (ok j));
  checkb "parse error mentioned" true
    (String.length (str "error" j) > 0
    && String.sub (str "error" j) 0 5 = "parse");
  (* nothing was forwarded: the coordinator rejected locally *)
  checki "no worker saw it" 0 (List.length h.sends)

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

(* ------------------------------------------------------------------ *)
(* Splicing the "worker" field                                          *)
(* ------------------------------------------------------------------ *)

(* JSON values with escaped strings, non-ASCII text, nested lists and
   objects and non-integer numbers *)
let gen_json =
  let open QCheck2.Gen in
  let text =
    map (String.concat "")
      (list_size (int_bound 6)
         (oneofl
            [ "a"; "xyz"; " "; "\""; "\\"; "\n"; "\t"; "\001"; "\031";
              "\195\169"; "\240\159\152\128"; "}"; "{"; ","; ":" ]))
  in
  let leaf =
    oneof
      [ pure Json.Null; map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Num (float_of_int i)) small_signed_int;
        map (fun f -> Json.Num f) (float_range (-1e6) 1e6);
        map (fun f -> Json.Num f) float;
        map (fun s -> Json.Str s) text ]
  in
  let obj v =
    map (fun fields -> Json.Obj fields) (list_size (int_bound 4) (pair text v))
  in
  let value =
    sized_size (int_bound 3)
    @@ fix (fun self n ->
           if n = 0 then leaf
           else
             frequency
               [ (2, leaf);
                 (1,
                  map (fun l -> Json.List l)
                    (list_size (int_bound 4) (self (n - 1))));
                 (1, obj (self (n - 1))) ])
  in
  triple (list_size (int_bound 5) (pair text value)) text value

(* A worker's line with a member spliced in, as the coordinator
   answers it. *)
let append_field line k x = Json.to_string (Json.Spliced (line, k, x))

let prop_append_field_splices =
  QCheck2.Test.make ~count:300 ~name:"spliced append_field = reprinted object"
    ~print:(fun (fields, k, x) ->
      Printf.sprintf "%s + %S: %s"
        (Json.to_string (Json.Obj fields))
        k (Json.to_string x))
    gen_json
    (fun (fields, k, x) ->
      append_field (Json.to_string (Json.Obj fields)) k x
      = Json.to_string (Json.Obj (fields @ [ (k, x) ])))

let test_append_field_cases () =
  let w = Json.Str "w0" in
  checks "empty object" {|{"worker":"w0"}|} (append_field "{}" "worker" w);
  checks "one member" {|{"ok":true,"worker":"w0"}|}
    (append_field {|{"ok":true}|} "worker" w);
  checks "escaped value" {|{"a":1,"worker":"a\"b"}|}
    (append_field {|{"a":1}|} "worker" (Json.Str "a\"b"));
  List.iter
    (fun line ->
      checks ("unchanged: " ^ line) line (append_field line "worker" w))
    [ ""; "[1,2]"; {|"{}"|}; "42"; "null"; "not json"; {|{"ok":true|}; "{";
      "}"; {|{"a":1}x|} ]

(* ------------------------------------------------------------------ *)
(* Supervision over real worker processes                              *)
(* ------------------------------------------------------------------ *)

(* This test binary doubles as the worker executable: re-executed with
   [--serve-worker SOCKET DELAY_S] it sleeps, then serves a fresh
   server on the socket until killed. *)
let serve_worker_flag = "--serve-worker"

let () =
  match Sys.argv with
  | [| _; flag; socket; delay |] when flag = serve_worker_flag ->
    Unix.sleepf (float_of_string delay);
    Server.serve_socket (Server.create ()) ~path:socket;
    exit 0
  | _ -> ()

(* The health thread sweeps every 10 ms while [add-worker] waits 400 ms
   for the new worker's socket: every sweep in that window sees the
   worker listed by the supervisor before the cluster has its ping
   transport, and must leave it alone. Killing it there raced
   [add-worker]'s own startup wait and could leave a never-registered
   worker that every later sweep killed again. *)
let test_health_check_during_add_worker () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fixq-hc-%d" (Unix.getpid ()))
  in
  let command ~name ~socket =
    [| Sys.executable_name; serve_worker_flag; socket;
       (if name = "w0" then "0" else "0.4") |]
  in
  let cluster =
    Fixq_cluster.Cluster.launch ~dir ~count:1 ~command
      ~health_interval_ms:10. ()
  in
  Fun.protect
    ~finally:(fun () ->
      Fixq_cluster.Cluster.shutdown cluster;
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let line, _ =
        Fixq_cluster.Cluster.handle_line cluster {|{"op":"add-worker"}|}
      in
      let j = Json.parse line in
      checkb "add-worker ok" true (ok j);
      checks "added w1" "w1"
        (Option.get (Json.str_opt (Json.member "worker" j)));
      checki "no worker restarted" 0
        (Fixq_cluster.Supervisor.restarts
           (Fixq_cluster.Cluster.supervisor cluster)))

(* A hospital closure whose answer is larger than the 64 KiB channel
   buffer, through a worker process behind the cluster and through a
   lone serving process over its socket: the bytes agree apart from the
   cluster's "worker" field and the timing. *)
let test_large_response_parity () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fixq-big-%d" (Unix.getpid ()))
  in
  let command ~name:_ ~socket =
    [| Sys.executable_name; serve_worker_flag; socket; "0" |]
  in
  let cluster = Fixq_cluster.Cluster.launch ~dir ~count:1 ~command () in
  let socket = Filename.concat dir "serve.sock" in
  let serve =
    Unix.create_process Sys.executable_name (command ~name:"serve" ~socket)
      Unix.stdin Unix.stdout Unix.stderr
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill serve Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] serve);
      Fixq_cluster.Cluster.shutdown cluster;
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let xml =
        Xdm.Serializer.to_string
          (W.Hospital.generate
             { W.Hospital.default with W.Hospital.total = 600; seed = 14 })
      in
      let load =
        Printf.sprintf {|{"op":"load-doc","uri":"hospital.xml","xml":%s}|}
          (Json.to_string (Json.Str xml))
      in
      let run =
        run_line
          {|declare variable $doc := doc("hospital.xml");
with $x seeded by $doc/hospital/patient
recurse $x/parents/patient|}
      in
      let transport = Fixq_cluster.Transport.create socket in
      let rec serve_call ?(tries = 200) line =
        match Fixq_cluster.Transport.call transport line with
        | Ok resp -> resp
        | Error _ when tries > 0 ->
          Unix.sleepf 0.02;
          serve_call ~tries:(tries - 1) line
        | Error e -> Alcotest.failf "serve: %s" e
      in
      let cluster_call line =
        fst (Fixq_cluster.Cluster.handle_line cluster line)
      in
      checkb "serve load ok" true (ok (Json.parse (serve_call load)));
      checkb "cluster load ok" true (ok (Json.parse (cluster_call load)));
      let single = serve_call run and routed = cluster_call run in
      checkb "answer crosses the channel buffer" true
        (String.length single > 65_536);
      let worker = str "worker" (Json.parse routed) in
      checkb "routed to a worker" true (worker <> "");
      (* drop the [,"wall_ms":N] member: a number, so it ends at the
         next ',' or '}' *)
      let untimed line =
        let key = {|,"wall_ms":|} in
        let n = String.length line and k = String.length key in
        let rec find i =
          if i + k > n then line
          else if String.sub line i k = key then begin
            let j = ref (i + k) in
            while !j < n && line.[!j] <> ',' && line.[!j] <> '}' do incr j done;
            String.sub line 0 i ^ String.sub line !j (n - !j)
          end
          else find (i + 1)
        in
        find 0
      in
      let suffix = Printf.sprintf {|,"worker":"%s"}|} worker in
      checkb "worker field last" true (String.ends_with ~suffix routed);
      checks "same bytes" (untimed single)
        (untimed
           (String.sub routed 0 (String.length routed - String.length suffix)
           ^ "}")))

let () =
  Alcotest.run "cluster"
    [ ("router",
       [ Alcotest.test_case "basic" `Quick test_router_basic;
         Alcotest.test_case "join/leave stability" `Quick
           test_router_stability;
         Alcotest.test_case "spread" `Quick test_router_spread ]);
      ("partition",
       [ Alcotest.test_case "union of slices = whole" `Quick
           test_partition_union_equals_whole ]);
      ("coordinator",
       [ Alcotest.test_case "load-doc replication" `Quick
           test_coordinator_load_replication;
         Alcotest.test_case "deterministic routing" `Quick
           test_coordinator_routing_deterministic;
         Alcotest.test_case "closure parity" `Quick
           test_coordinator_closure_parity;
         Alcotest.test_case "failover exactly-once" `Quick
           test_coordinator_failover;
         Alcotest.test_case "respawn replays documents" `Quick
           test_coordinator_respawn_replays_docs;
         Alcotest.test_case "out-of-order worker passed over" `Quick
           test_out_of_order_worker_passed_over;
         Alcotest.test_case "refused replay fails over" `Quick
           test_refused_replay_fails_over;
         Alcotest.test_case "respawn replays in load order" `Quick
           test_respawn_replay_order;
         Alcotest.test_case "constructed seed routes whole" `Quick
           test_constructed_seed_routes_whole;
         Alcotest.test_case "retry accounting" `Quick
           test_coordinator_retry_accounting;
         Alcotest.test_case "prometheus metrics declared once" `Quick
           test_coordinator_prometheus_metrics;
         Alcotest.test_case "local parse errors" `Quick
           test_coordinator_parse_error_local;
         Alcotest.test_case "append_field cases" `Quick test_append_field_cases;
         QCheck_alcotest.to_alcotest prop_append_field_splices ]);
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
           test_chaos_rebalance_kill_recovers ]);
      ("supervision",
       [ Alcotest.test_case "health check during add-worker" `Quick
           test_health_check_during_add_worker;
         Alcotest.test_case "response over 64 KiB: cluster = serve" `Quick
           test_large_response_parity ]) ]
