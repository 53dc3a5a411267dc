(* The four workloads: documents, query texts and request streams. The
   request streams are made from the workload seed; the documents are a
   fixed dataset per workload (generator kind, size and generator seed
   are constants), so the seed varies the traffic, not the data: runs
   with different seeds do the same kind and amount of work in a
   different order. *)

module Json = Fixq_service.Json
module Server = Fixq_service.Server
module Q = Fixq_workloads.Queries
module Rng = Fixq_workloads.Rng

type kind = Run | Write

type req = {
  line : string;  (** the request line sent on the wire *)
  kind : kind;
  family : string;  (** which query family (or write action) it is *)
}

type server =
  | Serve of { threads : int; durable : bool }
  | Cluster of { workers : int; replication : int }

type doc = { uri : string; gen : string; size : float; dseed : int }

type t = {
  name : string;
  server : server;
  docs : doc list;
  texts : (string * string) array;  (** (family, query text) *)
  warm : req list;  (** untimed warm-up, part of set-up *)
  main : req list array;  (** timed phase: one stream per connection *)
  unit : int;
      (** the main streams split into parts at multiples of this many
          requests, so balanced edit groups stay whole *)
  writes : req list;  (** closing write phase (may be empty) *)
}

let names = [ "fixpoint-cold"; "serve-zipf"; "patch-mix"; "cluster-scatter" ]

(* Every run issues at least this many writes (its mix's, topped up by
   a closing write phase): 400 per part for write_p50_ms, and ten
   beyond the printed write p99. *)
let min_writes = 2000

(* The snapshot policy of the durable workload, the server default: a
   snapshot (written with fsync, rewriting the whole state) every 64
   logged ops; WAL appends are not fsynced. *)
let snapshot_threshold = 64

(* ------------------------------------------------------------------ *)
(* Request lines                                                       *)
(* ------------------------------------------------------------------ *)

let obj fields = Json.to_string (Json.Obj fields)

let load_line d =
  obj
    [ ("op", Json.Str "load-doc"); ("uri", Json.Str d.uri);
      ("generate", Json.Str d.gen); ("size", Json.Num d.size);
      ("seed", Json.of_int d.dseed) ]

let run_line ?(cache = true) ?mode query =
  obj
    ([ ("op", Json.Str "run"); ("query", Json.Str query) ]
    @ (if cache then [] else [ ("cache", Json.Bool false) ])
    @ match mode with Some m -> [ ("mode", Json.Str m) ] | None -> [])

let run ?cache (family, query) =
  { line = run_line ?cache query; kind = Run; family }

(* ------------------------------------------------------------------ *)
(* Query texts                                                         *)
(* ------------------------------------------------------------------ *)

(* Section 4.1's unfolded Q1 over a multi-course seed, on its own
   larger curriculum: the syntactic check rejects it, the algebraic
   check accepts it, so the interpreter runs it Naïve. *)
let q1_unfolded_multi =
  {|with $x seeded by doc("curricula.xml")/curriculum/course[@code = ("c1","c2","c3","c4","c5","c6","c7","c8")]
recurse
  for $c in doc("curricula.xml")/curriculum/course
  where $c/@code = $x/prerequisites/pre_code
  return $c|}

let q1_code code =
  Printf.sprintf
    {|with $x seeded by doc("curriculum.xml")/curriculum/course[@code="%s"]
recurse $x/id(./prerequisites/pre_code)|}
    code

let q1_all =
  {|with $x seeded by doc("curriculum.xml")/curriculum/course
recurse $x/id(./prerequisites/pre_code)|}

let hospital_closure =
  {|declare variable $doc := doc("hospital.xml");

with $x seeded by $doc/hospital/patient
recurse $x/parents/patient|}

(* Downward closure of one open auction, selected by a predicate: the
   predicate makes it insert-only for IVM, so an inserted bidder is
   maintained and a deleted one forces a recompute. *)
let auction_closure i =
  Printf.sprintf
    {|with $x seeded by doc("auction.xml")/site/open_auctions/open_auction[@id = "open_auction%d"]
recurse $x/*|}
    i

let node_count_query uri = Printf.sprintf {|count(doc("%s")//node())|} uri

(* ------------------------------------------------------------------ *)
(* Sampling                                                            *)
(* ------------------------------------------------------------------ *)

(* Zipf over ranks 0..n-1 with exponent [s]: the CDF, sampled by
   binary search. *)
let zipf_cdf n s =
  let w = Array.init n (fun k -> 1. /. (float_of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_draw rng cdf =
  let u = Rng.float rng in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ------------------------------------------------------------------ *)
(* Balanced bidder edits                                               *)
(* ------------------------------------------------------------------ *)

(* Number of bidders in each open auction of a generated auction
   document, read through the server itself. *)
let auction_bidders (d : doc) =
  let server = Server.create () in
  ignore (Server.handle_line server (load_line d));
  let q =
    Printf.sprintf
      {|for $a in doc("%s")/site/open_auctions/open_auction return count($a/bidder)|}
      d.uri
  in
  let resp, _ = Server.handle_line server (run_line ~cache:false q) in
  match Json.str_opt (Json.member "result" (Json.parse resp)) with
  | Some s ->
    String.split_on_char ' ' s |> List.filter (( <> ) "")
    |> List.map int_of_string |> Array.of_list
  | None -> failwith ("auction_bidders: " ^ resp)

(* [triples] balanced edit triples on the auction document: insert a
   bidder as the last child of an open auction drawn from [targets]
   (0-based auction indexes), rename a person (set-text), then delete
   the inserted bidder again, so the node count returns to its start
   after every triple. Three equal write classes keep write_p50_ms in
   the middle of one of them, whatever their order by latency. *)
let patch_line ~uri action path extra =
  obj
    ([ ("op", Json.Str "patch-doc"); ("uri", Json.Str uri);
       ("action", Json.Str action); ("path", Json.Str path) ]
    @ extra)

let auction_path a = Printf.sprintf "/site/open_auctions/open_auction[%d]" (a + 1)

(* insert a bidder for [person] as the last child of auction [a] *)
let insert_bidder ~uri a person =
  patch_line ~uri "insert" (auction_path a)
    [ ("xml",
       Json.Str
         (Printf.sprintf {|<bidder><personref person="person%d"/></bidder>|}
            person)) ]

(* delete that bidder again: auction [a] started with [bidders.(a)] *)
let delete_bidder ~uri ~bidders a =
  patch_line ~uri "delete"
    (Printf.sprintf "%s/bidder[%d]" (auction_path a) (bidders.(a) + 1))
    []

let edits rng (d : doc) ~targets triples =
  let uri = d.uri in
  let bidders = auction_bidders d in
  let persons = Fixq_workloads.Xmark.persons_of_scale d.size in
  let targets =
    match targets with
    | Some t -> t
    | None -> Array.init (Array.length bidders) Fun.id
  in
  List.concat
    (List.init triples (fun _ ->
         let a = targets.(Rng.int rng (Array.length targets)) in
         let bidder = Rng.int rng persons in
         let renamed = Rng.int rng persons in
         [ { line = insert_bidder ~uri a bidder; kind = Write; family = "insert" };
           { line =
               patch_line ~uri "set-text"
                 (Printf.sprintf "/site/people/person[%d]/name" (renamed + 1))
                 [ ("text", Json.Str (Printf.sprintf "Renamed %d" (Rng.int rng 1000))) ];
             kind = Write; family = "set-text" };
           { line = delete_bidder ~uri ~bidders a; kind = Write; family = "delete" } ]))

let count_writes l = List.length (List.filter (fun r -> r.kind = Write) l)

(* The closing write phase: enough balanced edits on an auction
   document to bring the run to [writes]. *)
let top_up rng ~writes ~auction ~already =
  let missing = max 0 (writes - already) in
  if missing = 0 then [] else edits rng auction ~targets:None ((missing + 2) / 3)

(* ------------------------------------------------------------------ *)
(* The workloads                                                       *)
(* ------------------------------------------------------------------ *)

let fixpoint_cold ~seed ~runs ~writes =
  let rng = Rng.create (seed * 4 + 1) in
  (* the closing write phase edits a document no query reads *)
  let ledger = { uri = "ledger.xml"; gen = "xmark"; size = 0.01; dseed = 11 } in
  let docs =
    [ { uri = "auction.xml"; gen = "xmark"; size = 0.002; dseed = 11 };
      ledger;
      { uri = "romeo.xml"; gen = "play"; size = 0.; dseed = 11 };
      { uri = "curriculum.xml"; gen = "curriculum"; size = 300.; dseed = 11 };
      { uri = "curricula.xml"; gen = "curriculum"; size = 1000.; dseed = 11 };
      { uri = "hospital.xml"; gen = "hospital"; size = 2500.; dseed = 11 } ]
  in
  let texts =
    [| ("bidder", Q.bidder_network); ("dialogs", Q.dialogs);
       ("curriculum", Q.curriculum_check); ("hospital", Q.hospital);
       ("q1_unfolded", q1_unfolded_multi) |]
  in
  (* A cycle of 32 runs in a seeded order: 8 curriculum checks (about
     2 ms), 12 hospital (about 6 ms), 5 bidder and 6 dialogs (about
     8 ms) and 1 Naive unfolded Q1 (about 55 ms). Hospital spans the
     25%-62.5% band, so p50 reads the middle of one family. The
     unfolded Q1 is the top 3.1% and several times slower than a GC
     pause or scheduling delay adds to the others, so p99 reads its
     body rather than the host's tail. *)
  let cycle =
    Array.concat
      (List.map
         (fun (i, k) -> Array.make k texts.(i))
         [ (2, 8); (3, 12); (0, 5); (1, 6); (4, 1) ])
  in
  let cycles = (runs + Array.length cycle - 1) / Array.length cycle in
  let main =
    List.concat
      (List.init cycles (fun _ ->
           Array.to_list (shuffle rng cycle) |> List.map (run ~cache:false)))
  in
  { name = "fixpoint-cold";
    server = Serve { threads = 1; durable = false };
    docs; texts;
    warm = Array.to_list texts |> List.map (run ~cache:false);
    main = [| main |];
    unit = 32;
    writes = top_up rng ~writes ~auction:ledger ~already:0 }

let serve_zipf ~seed ~runs ~writes =
  let rng = Rng.create (seed * 4 + 2) in
  let auction = { uri = "auction.xml"; gen = "xmark"; size = 0.02; dseed = 12 } in
  let courses = 500 in
  let docs =
    [ auction;
      { uri = "curriculum.xml"; gen = "curriculum"; size = float_of_int courses;
        dseed = 12 } ]
  in
  let persons = Fixq_workloads.Xmark.persons_of_scale auction.size in
  let texts =
    Array.append
      (Array.init persons (fun i ->
           ("bidder_single", Q.bidder_network_single (Printf.sprintf "person%d" i))))
      (Array.init courses (fun i ->
           ("q1", q1_code (Printf.sprintf "c%d" (i + 1)))))
  in
  (* Ranks alternate between the families, so both are equally hot
     whatever the seed; the seed decides which person and which course
     sit at each rank. *)
  let bidders = shuffle rng (Array.sub texts 0 persons) in
  let q1s = shuffle rng (Array.sub texts persons courses) in
  let by_rank =
    Array.init (Array.length texts) (fun k ->
        let half = k / 2 in
        let n = min persons courses in
        if half < n then if k mod 2 = 0 then bidders.(half) else q1s.(half)
        else if persons > courses then bidders.(k - n)
        else q1s.(k - n))
  in
  let cdf = zipf_cdf (Array.length by_rank) 1.1 in
  let stream n = List.init n (fun _ -> run by_rank.(zipf_draw rng cdf)) in
  let warm = stream 800 in
  let main = Array.init 2 (fun _ -> stream ((runs + 1) / 2)) in
  { name = "serve-zipf";
    server = Serve { threads = 2; durable = false };
    docs; texts; warm; main; unit = 1;
    writes = top_up rng ~writes ~auction ~already:0 }

let patch_mix ~seed ~runs ~writes =
  let rng = Rng.create (seed * 4 + 3) in
  let auction = { uri = "auction.xml"; gen = "xmark"; size = 0.01; dseed = 13 } in
  let bidders = auction_bidders auction in
  (* 16 maintained fixpoints, on auctions spread over the document
     (the first is auction 0) *)
  let n = 16 in
  let targets = Array.init n (fun k -> k * (Array.length bidders / n)) in
  let texts = Array.map (fun a -> ("auction_closure", auction_closure a)) targets in
  (* zipf by auction order; the seed drives the draws and the edits *)
  let cdf = zipf_cdf n 1.0 in
  let read () = run texts.(zipf_draw rng cdf) in
  (* four reads then one write *)
  let triples = max ((writes + 2) / 3) ((runs + 11) / 12) in
  let edits = Array.of_list (edits rng auction ~targets:(Some targets) triples) in
  let main =
    List.concat
      (Array.to_list
         (Array.map (fun w -> [ read (); read (); read (); read (); w ]) edits))
  in
  { name = "patch-mix";
    server = Serve { threads = 1; durable = true };
    docs = [ auction ]; texts;
    (* 200 reads of the same mix fill the caches, as in steady state *)
    warm = List.init 200 (fun _ -> read ());
    main = [| main |];
    unit = 15;
    writes = [] }

let cluster_scatter ~seed ~runs ~writes =
  let rng = Rng.create (seed * 4 + 4) in
  let auction = { uri = "auction.xml"; gen = "xmark"; size = 0.001; dseed = 14 } in
  let docs =
    [ auction;
      { uri = "hospital.xml"; gen = "hospital"; size = 240.; dseed = 14 };
      { uri = "curriculum.xml"; gen = "curriculum"; size = 1000.; dseed = 14 } ]
  in
  let texts =
    [| ("hospital_closure", hospital_closure); ("q1_all", q1_all);
       ("bidder", Q.bidder_network) |]
  in
  (* Blocks of 30 in a seeded order: 27 runs (20 scattered hospital
     closures, 6 routed bidder networks, 1 scattered Q1 closure over a
     larger curriculum) and one edit triple. The hospital closures span
     the 22%-96% band of the runs, so p50 reads the middle of that
     class; the Q1 closure is the slowest 3.7%, so p99 reads its body. *)
  let blocks = (runs + 26) / 27 in
  let edits = Array.of_list (edits rng auction ~targets:None blocks) in
  let main =
    List.concat
      (List.init blocks (fun b ->
           let runs =
             List.concat
               [ List.init 20 (fun _ -> run texts.(0));
                 [ run texts.(1) ];
                 List.init 6 (fun _ -> run texts.(2)) ]
           in
           let writes = List.filteri (fun i _ -> i / 3 = b) (Array.to_list edits) in
           (* shuffle the positions, keeping the edits in their order *)
           let block = shuffle rng (Array.of_list (writes @ runs)) in
           let pending = ref writes in
           Array.to_list
             (Array.map
                (fun r ->
                  match (r.kind, !pending) with
                  | Write, w :: rest ->
                    pending := rest;
                    w
                  | _ -> r)
                block)))
  in
  { name = "cluster-scatter";
    server = Cluster { workers = 2; replication = 2 };
    docs; texts;
    warm = Array.to_list texts |> List.map run;
    main = [| main |];
    unit = 30;
    writes = top_up rng ~writes ~auction ~already:(count_writes main) }

(* [runs] timed [run] requests and at least [writes] writes (default
   [min_writes]); the benchmark sizes [runs] from the run length, the
   self-test passes small counts. *)
let make ?(writes = min_writes) name ~seed ~runs =
  match name with
  | "fixpoint-cold" -> fixpoint_cold ~seed ~runs ~writes
  | "serve-zipf" -> serve_zipf ~seed ~runs ~writes
  | "patch-mix" -> patch_mix ~seed ~runs ~writes
  | "cluster-scatter" -> cluster_scatter ~seed ~runs ~writes
  | other -> invalid_arg ("unknown workload " ^ other)

(* Which writes take a snapshot or a compaction. Both follow fixed
   schedules: the store snapshots when its logged-op count (set-up's
   document loads included) reaches a multiple of the threshold, and
   the coordinator compacts a document's history every 16 patches (its
   [compact_patches] default; all edits go to one document). Returns a
   function to call once per write, in order, on one server lifetime.
   The traced run checks the schedule against the counters. *)
let write_schedule spec =
  let logged = ref (List.length spec.docs) in
  let patches = ref 0 in
  fun () ->
    incr logged;
    incr patches;
    match spec.server with
    | Serve { durable = true; _ } -> (!logged mod snapshot_threshold = 0, false)
    | Serve _ -> (false, false)
    | Cluster _ -> (false, !patches mod 16 = 0)
