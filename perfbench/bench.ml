(* The benchmark program: one workload, one seed, one run.

     bench.exe --fixq FIXQ --workload W --seed N --seconds S --trace 0|1

   It starts real [fixq serve] / [fixq cluster] processes, one per part
   of the run, drives the workload's timed phase over the Unix socket in
   a closed loop, checks the outputs, and prints the end-to-end metrics.
   With [--trace 1] it also replays the same streams in-process and
   prints the per-layer metrics instead. The last line of standard
   output is the result object. *)

open Perfbench
module Json = Fixq_service.Json

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Host-speed reference                                                 *)
(* ------------------------------------------------------------------ *)

(* Fixed pure-OCaml work shaped like a server's: building and walking
   trees (allocation, minor collections) and hashing strings into a
   table. A busy neighbour on the shared host slows this the way
   it slows the servers, while arithmetic in registers barely moves.
   The client has a slice timed between every two segments of a timed
   phase, with no request in flight (see [drive]); only a reading taken
   that densely tracks the host. The slices run in a helper process of
   this program, started once per run, so that neither the client's
   heap nor its timing is disturbed by them. *)
type tree = Leaf | Node of tree * tree

let reference_slice () =
  let rec make d = if d = 0 then Leaf else Node (make (d - 1), make (d - 1)) in
  let rec size = function Leaf -> 1 | Node (l, r) -> 1 + size l + size r in
  for _ = 1 to 32 do
    ignore (Sys.opaque_identity (size (make 12)))
  done;
  let h = Hashtbl.create 16 in
  for i = 1 to 8_000 do
    Hashtbl.replace h (string_of_int (i * 7919 mod 100_003)) i
  done;
  let hits = ref 0 in
  for i = 1 to 8_000 do
    if Hashtbl.mem h (string_of_int i) then incr hits
  done;
  ignore (Sys.opaque_identity !hits)

(* [bench.exe --reference]: time one slice per line read, until EOF. *)
let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--reference" then begin
    (try
       while true do
         ignore (input_line stdin);
         (* every slice starts from the same, empty heap *)
         Gc.full_major ();
         let t0 = now () in
         reference_slice ();
         Printf.printf "%.17g\n%!" ((now () -. t0) *. 1000.)
       done
     with End_of_file -> ());
    exit 0
  end

let reference_helper =
  lazy (Unix.open_process_args Sys.executable_name [| Sys.executable_name; "--reference" |])

let reference_slice_ms () =
  let ic, oc = Lazy.force reference_helper in
  output_string oc "\n";
  flush oc;
  float_of_string (input_line ic)

let stop_reference_helper () =
  if Lazy.is_val reference_helper then
    ignore (Unix.close_process (Lazy.force reference_helper))

(* The slice's time on a quiet host; a host factor of 1 means the host
   ran at that speed. *)
let reference_nominal_ms = 6.5

(* ------------------------------------------------------------------ *)
(* Arguments                                                            *)
(* ------------------------------------------------------------------ *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let fixq = ref ""
let run_dir = ref ".perfbench-run"
let replay_mode = ref ""
let replay_out = ref ""

let () =
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S run length the op counts are sized for");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--fixq", Arg.Set_string fixq, "PATH the fixq executable");
      ("--dir", Arg.Set_string run_dir, "DIR scratch directory for the run");
      ("--replay", Arg.Set_string replay_mode,
       "off|on|prepare (internal) one in-process replay, in a fresh process");
      ("--out", Arg.Set_string replay_out, "FILE (internal) where --replay writes") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --fixq FIXQ --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload Spec.names) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end;
  if !fixq = "" || not (Sys.file_exists !fixq) then begin
    prerr_endline "--fixq must name the built fixq executable";
    exit 2
  end;
  (* servers run in their own directories *)
  if Filename.is_relative !fixq then fixq := Filename.concat (Sys.getcwd ()) !fixq

(* Timed [run] requests per run, for a 10 s run on a 2-core x86-64 host;
   scaled linearly with --seconds, never below 1000. *)
let runs =
  let per_10s =
    match !workload with
    | "fixpoint-cold" -> 1000
    | "serve-zipf" -> 8000
    | "patch-mix" -> 6000
    | _ -> 900
  in
  max 1000 (per_10s * !seconds / 10)

let spec = Spec.make !workload ~seed:!seed ~runs

(* ------------------------------------------------------------------ *)
(* Server processes                                                     *)
(* ------------------------------------------------------------------ *)

let ok j = Json.bool_opt (Json.member "ok" j) = Some true
let result j = Option.value ~default:"" (Json.str_opt (Json.member "result" j))

let server_args () =
  match spec.Spec.server with
  | Spec.Serve { threads; durable } ->
    [ "serve"; "--socket"; "s.sock"; "--workers"; string_of_int threads ]
    @
    if durable then
      [ "--state-dir"; "state"; "--snapshot-threshold";
        string_of_int Spec.snapshot_threshold ]
    else []
  | Spec.Cluster { workers; replication } ->
    [ "cluster"; "--socket"; "s.sock"; "--workers"; string_of_int workers;
      "--replication"; string_of_int replication; "--worker-dir"; "w" ]

type session = {
  server : Proc.server;
  conn : Proc.conn;
  setup_s : float;
  generate_ms : float;
  warm_ms : float;
  start_nodes : (string * string) list;
      (** node count of each edited (auction) document after set-up *)
}

let failures = ref []
let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt

let checked_call conn line =
  let j = Proc.call_json conn line in
  if not (ok j) then fail "request failed: %s" (Json.to_string j);
  j

(* Edits only touch auction documents; each must end a part with the
   node count it started with. *)
let node_counts conn =
  List.filter_map
    (fun d ->
      if d.Spec.gen <> "xmark" then None
      else
        Some
          ( d.Spec.uri,
            result
              (checked_call conn
                 (Spec.run_line ~cache:false (Spec.node_count_query d.Spec.uri))) ))
    spec.Spec.docs

(* Set-up: spawn, generate the documents, warm up — the interval from
   spawning the server to the first timed request. *)
let setup k =
  let dir = Filename.concat !run_dir (Printf.sprintf "%s-%d" !workload k) in
  Proc.rm_rf dir;
  let t0 = now () in
  let server, conn = Proc.spawn ~fixq:!fixq ~dir ~socket:"s.sock" (server_args ()) in
  let g0 = now () in
  List.iter (fun d -> ignore (checked_call conn (Spec.load_line d))) spec.Spec.docs;
  let generate_ms = (now () -. g0) *. 1000. in
  (match spec.Spec.server with
  | Spec.Cluster _ ->
    let st = Json.member "stats" (checked_call conn {|{"op":"stats"}|}) in
    server.Proc.workers <-
      (match Json.member "workers" st with
      | Json.List ws -> List.filter_map (fun w -> Json.int_opt (Json.member "pid" w)) ws
      | _ -> [])
  | Spec.Serve _ -> ());
  let w0 = now () in
  List.iter (fun (r : Spec.req) -> ignore (checked_call conn r.Spec.line)) spec.Spec.warm;
  let warm_ms = (now () -. w0) *. 1000. in
  let start_nodes = node_counts conn in
  { server; conn; setup_s = now () -. t0; generate_ms; warm_ms; start_nodes }

(* ------------------------------------------------------------------ *)
(* Timed phases                                                         *)
(* ------------------------------------------------------------------ *)

type sample = {
  req : Spec.req;
  lat_ms : float;  (** divided by its segment's host factor *)
  raw_ms : float;
  seg : int;  (** the segment of the phase it ran in *)
  resp : Resp.t;
}

type segment = {
  dur_s : float;  (** divided by the host factor *)
  cpu_s : float;  (** server CPU, divided by the host factor *)
  factor : float;
}

(* Closed loop: each connection sends its next request when the
   previous response has arrived. The phase runs in segments of [seg]
   requests per connection; at each segment boundary no request is in
   flight and the client times one slice of the host-speed reference. A
   segment's host factor is the mean of the slices at its two ends over
   the nominal slice time, and every time measured in the segment is
   divided by it. [ref_before] is the slice taken just before the
   phase. Lines are summarised once the phase is over. *)
let drive ~server ~seg ~ref_before conns (streams : Spec.req list array) =
  let streams = Array.map Array.of_list streams in
  let nseg =
    Array.fold_left (fun a l -> max a ((Array.length l + seg - 1) / seg)) 0 streams
  in
  let out = Array.map (fun l -> Array.make (Array.length l) (0., 0, "")) streams in
  let segs = Array.make nseg { dur_s = 0.; cpu_s = 0.; factor = 1. } in
  let before = ref ref_before in
  for g = 0 to nseg - 1 do
    let one i =
      let l = streams.(i) in
      for k = g * seg to min (Array.length l) ((g + 1) * seg) - 1 do
        let t0 = now () in
        let line = try Proc.call conns.(i) l.(k).Spec.line with _ -> "" in
        out.(i).(k) <- ((now () -. t0) *. 1000., g, line)
      done
    in
    let cpu0 = Proc.total_cpu server in
    let t0 = now () in
    (match Array.length streams with
    | 1 -> one 0
    | n -> List.iter Thread.join (List.init n (fun i -> Thread.create one i)));
    let dur = now () -. t0 in
    let cpu = Proc.total_cpu server -. cpu0 in
    let after = reference_slice_ms () in
    let factor = (!before +. after) /. 2. /. reference_nominal_ms in
    before := after;
    segs.(g) <- { dur_s = dur /. factor; cpu_s = cpu /. factor; factor }
  done;
  let samples =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun i reqs ->
              Array.mapi
                (fun k req ->
                  let raw_ms, g, line = out.(i).(k) in
                  out.(i).(k) <- (raw_ms, g, "");
                  { req; raw_ms; lat_ms = raw_ms /. segs.(g).factor; seg = g;
                    resp = Resp.of_line line })
                reqs)
            streams))
  in
  (samples, segs)

let filter = Layers.filter
let is_run (s : sample) = s.req.Spec.kind = Spec.Run
let is_write (s : sample) = s.req.Spec.kind = Spec.Write

(* ------------------------------------------------------------------ *)
(* Output checks                                                        *)
(* ------------------------------------------------------------------ *)

(* Within a phase where a text's documents do not change, every answer
   to it must be the same bytes. *)
let check_consistent samples ~families =
  let seen = Hashtbl.create 64 in
  Array.iter
    (fun s ->
      if is_run s && List.mem s.req.Spec.family families && s.resp.Resp.ok then
        match Hashtbl.find_opt seen s.req.Spec.line with
        | None -> Hashtbl.replace seen s.req.Spec.line s.resp.Resp.result
        | Some d ->
          if d <> s.resp.Resp.result then
            fail "%s: two answers to one text in an unchanged document"
              s.req.Spec.family)
    samples;
  seen

let query_of = Layers.query_of

(* A cached (or maintained) answer must be byte-equal to a recompute. *)
let check_cached_vs_recompute conn texts ~what =
  List.iter
    (fun (family, q) ->
      let cached = Proc.call_json conn (Spec.run_line q) in
      let fresh = Proc.call_json conn (Spec.run_line ~cache:false q) in
      if not (ok cached && ok fresh) then fail "%s %s: request failed" what family
      else if result cached <> result fresh then
        fail "%s %s: cached answer differs from a cache:false recompute" what family)
    texts

let checks_before_writes conn main =
  match !workload with
  | "fixpoint-cold" ->
    let seen = check_consistent main ~families:(List.map fst (Array.to_list spec.Spec.texts)) in
    (* Theorem 3.2: Naive and Delta agree on distributive bodies; the
       unfolded Q1 is licensed by the algebraic check *)
    Array.iter
      (fun (family, q) ->
        let a = Proc.call_json conn (Spec.run_line ~cache:false ~mode:"naive" q) in
        let b = Proc.call_json conn (Spec.run_line ~cache:false ~mode:"delta" q) in
        if not (ok a && ok b) then fail "%s: naive/delta run failed" family
        else begin
          if result a <> result b then fail "%s: Naive and Delta disagree" family;
          match Hashtbl.find_opt seen (Spec.run_line ~cache:false q) with
          | Some d when d <> Digest.string (result a) -> fail "%s: timed answer differs" family
          | _ -> ()
        end)
      spec.Spec.texts
  | "serve-zipf" ->
    ignore (check_consistent main ~families:[ "bidder_single"; "q1" ]);
    (* a seeded sample of the texts the phase used *)
    let used =
      Array.to_list main
      |> List.map (fun s -> (s.req.Spec.family, query_of s.req.Spec.line))
      |> List.sort_uniq compare |> Array.of_list
    in
    let rng = Fixq_workloads.Rng.create (!seed + 99) in
    let sample = Array.sub (Spec.shuffle rng used) 0 (min 16 (Array.length used)) in
    check_cached_vs_recompute conn (Array.to_list sample) ~what:"cached"
  | "patch-mix" ->
    check_cached_vs_recompute conn (Array.to_list spec.Spec.texts) ~what:"cached";
    (* maintained answers: insert a bidder into auction 0, whose
       closure is among the maintained fixpoints, compare, and delete
       it again *)
    let auction = List.hd spec.Spec.docs in
    let uri = auction.Spec.uri in
    ignore (checked_call conn (Spec.insert_bidder ~uri 0 0));
    check_cached_vs_recompute conn (Array.to_list spec.Spec.texts) ~what:"maintained";
    ignore
      (checked_call conn (Spec.delete_bidder ~uri ~bidders:(Spec.auction_bidders auction) 0))
  | _ -> ignore (check_consistent main ~families:[ "hospital_closure"; "q1_all" ])

(* Scatter answers must equal the single-server answer. *)
let single_server =
  lazy
    (let server = Fixq_service.Server.create () in
     List.iter
       (fun d -> ignore (Fixq_service.Server.handle_line server (Spec.load_line d)))
       spec.Spec.docs;
     server)

let check_cluster conn =
  Array.iter
    (fun (family, q) ->
      let c = Proc.call_json conn (Spec.run_line ~cache:false q) in
      let s =
        Json.parse
          (fst (Fixq_service.Server.handle_line (Lazy.force single_server)
                  (Spec.run_line ~cache:false q)))
      in
      if not (ok c && ok s) then fail "%s: parity run failed" family
      else if result c <> result s then
        fail "%s: cluster answer differs from the single-server answer" family)
    spec.Spec.texts

let checks_after_writes session =
  if Layers.is_cluster spec then check_cluster session.conn;
  List.iter2
    (fun (uri, before) (_, after) ->
      if before <> after then fail "%s has %s nodes after the run, %s before" uri after before)
    session.start_nodes (node_counts session.conn)

(* ------------------------------------------------------------------ *)
(* Classes                                                              *)
(* ------------------------------------------------------------------ *)

let classify schedule samples =
  Array.map
    (fun s ->
      let family = s.req.Spec.family in
      match s.req.Spec.kind with
      | Spec.Run -> (Resp.run_class ~family s.resp, s.lat_ms)
      | Spec.Write ->
        let snapshot, compaction = schedule () in
        (Resp.write_class ~family ~snapshot ~compaction, s.lat_ms))
    samples

let guard what q samples =
  match Stats.near_boundary q samples with
  | Some msg -> fail "class-share guard, %s: %s" what msg
  | None -> ()

let print_shares what samples =
  Printf.printf "  classes of %s (%d):\n" what (Array.length samples);
  List.iter
    (fun (s : Stats.share) ->
      Printf.printf "    %-44s %6.2f%%  median %.3f ms  (n=%d)\n" s.Stats.cls
        (100. *. s.Stats.frac) s.Stats.med s.Stats.count)
    (Stats.shares samples)

(* ------------------------------------------------------------------ *)
(* The socket run                                                        *)
(* ------------------------------------------------------------------ *)

(* The timed stream is split into five parts, each served by its own
   server lifetime (set-up, timed phase, checks, write phase, checks,
   stop). Set-up time, CPU per request and peak RSS are the median over
   the five parts, so a process-level accident (heap layout, core
   placement) in one or two parts does not move them; throughput and
   the write median are medians over segments, the run percentiles
   pool the parts' samples (below). *)
let parts = 5

(* [split ~unit l] cuts [l] into [parts] contiguous pieces whose lengths
   are multiples of [unit] (balanced edit groups stay whole); the last
   piece takes the remainder. *)
let split ~unit l =
  let per = List.length l / unit / parts * unit in
  List.init parts (fun k ->
      List.filteri (fun i _ -> i >= k * per && (k = parts - 1 || i < (k + 1) * per)) l)

(* Segment lengths, in requests per connection: whole cycles or blocks
   of the stream, 0.1-0.2 s each on a quiet host. The closing write
   phase runs in segments of 30 edit triples. *)
let seg_main =
  match !workload with
  | "fixpoint-cold" -> 32
  | "serve-zipf" -> 100
  | "patch-mix" -> 150
  | _ -> 30

let seg_tail = 90

type part = {
  main : sample array;  (** the timed phase *)
  main_segs : segment array;
  tail : sample array;  (** the closing write phase *)
  tail_segs : segment array;
  rss_mb : float;
  session : session;  (** [setup_s] divided by the host factor *)
  raw_setup_s : float;
  run_classes : (string * float) array;
  write_classes : (string * float) array;
  raw_classes : (string * float) array;  (** all requests, raw latencies *)
}

let run_part k ~main ~tail =
  let s = setup k in
  let r1 = reference_slice_ms () in
  let conns =
    Array.init (Array.length main) (fun i ->
        if i = 0 then s.conn else Proc.connect s.server.Proc.socket)
  in
  let main, main_segs = drive ~server:s.server ~seg:seg_main ~ref_before:r1 conns main in
  Array.iteri (fun i c -> if i > 0 then Proc.close c) conns;
  checks_before_writes s.conn main;
  let tail, tail_segs =
    drive ~server:s.server ~seg:seg_tail ~ref_before:(reference_slice_ms ()) [| s.conn |]
      [| tail |]
  in
  checks_after_writes s;
  let rss_mb = Proc.total_rss s.server in
  Proc.stop s.server s.conn;
  Proc.rm_rf (Filename.dirname s.server.Proc.socket);
  let schedule = Spec.write_schedule spec in
  let classes = classify schedule main in
  let tail_classes = classify schedule tail in
  let keep p = filter (fun (i, _) -> p main.(i)) (Array.mapi (fun i c -> (i, c)) classes) in
  let raw a cs = Array.map2 (fun (c, _) smp -> (c, smp.raw_ms)) cs a in
  (* set-up is too short to interleave slices with; it takes its part's
     median factor *)
  let setup_factor = Stats.median (Array.map (fun seg -> seg.factor) main_segs) in
  { main; main_segs; tail; tail_segs; rss_mb;
    session = { s with setup_s = s.setup_s /. setup_factor };
    raw_setup_s = s.setup_s;
    run_classes = Array.map snd (keep is_run);
    write_classes = Array.append (Array.map snd (keep is_write)) tail_classes;
    raw_classes = Array.append (raw main classes) (raw tail tail_classes) }

let socket_run () =
  let mains = Array.map (split ~unit:spec.Spec.unit) spec.Spec.main in
  let tails = split ~unit:3 spec.Spec.writes in
  List.init parts (fun k ->
      run_part (k + 1)
        ~main:(Array.map (fun m -> List.nth m k) mains)
        ~tail:(List.nth tails k))

let pooled f parts = Array.concat (List.map f parts)
let med f parts = Stats.median (Array.of_list (List.map f parts))

(* ------------------------------------------------------------------ *)
(* End-to-end metrics                                                   *)
(* ------------------------------------------------------------------ *)

let counts parts =
  let all = pooled (fun p -> Array.append p.main p.tail) parts in
  (Array.length all, Array.length (filter (fun s -> not s.resp.Resp.ok) all))

let lat a = Array.map (fun s -> s.lat_ms) a
let part_writes p = Array.append (filter is_write p.main) p.tail
let ok_count a = Array.length (filter (fun s -> s.resp.Resp.ok) a)

(* Throughput and the write median are medians over the segments of
   all five parts, so a stretch of the host the reference misread moves
   a few segments, not the result. The run percentiles pool the
   (scaled) samples of all parts, which read steadier. *)
let by_segment samples segs =
  Array.to_list (Array.mapi (fun g seg -> (seg, filter (fun s -> s.seg = g) samples)) segs)

(* Writes are grouped by the segment they ran in, in either phase;
   groups of fewer than 15 are left out (a median of a handful of writes
   from three classes is mostly class luck). *)
let write_groups p =
  List.filter
    (fun a -> Array.length a >= 15)
    (List.map (fun (_, a) -> filter is_write a) (by_segment p.main p.main_segs)
    @ List.map snd (by_segment p.tail p.tail_segs))

let median_over parts f = Stats.median (Array.of_list (List.concat_map f parts))

let end_to_end parts =
  let runs = pooled (fun p -> lat (filter is_run p.main)) parts in
  let writes = pooled (fun p -> lat (part_writes p)) parts in
  let attempted, failed = counts parts in
  let run_classes = pooled (fun p -> p.run_classes) parts in
  let write_classes = pooled (fun p -> p.write_classes) parts in
  guard "latency_p50_ms" 0.5 run_classes;
  guard "latency_p99_ms" 0.99 run_classes;
  guard "write_p50_ms" 0.5 write_classes;
  if Array.length runs < 1000 then fail "only %d timed run requests" (Array.length runs);
  if Array.length writes < Spec.min_writes then fail "only %d writes" (Array.length writes);
  (* write p99 is printed, not reported: outside patch-mix's snapshot
     class it reads the host's scheduling tail (see README) *)
  Printf.printf "  write p99 (printed only): %.3f ms (n=%d)%s\n"
    (Stats.percentile 0.99 writes) (Array.length writes)
    (match Stats.near_boundary 0.99 write_classes with
    | Some m -> "; near a class edge: " ^ m
    | None -> "");
  let total_completed = List.fold_left (fun a p -> a + ok_count p.main) 0 parts in
  let segments p = by_segment p.main p.main_segs in
  ( attempted, failed,
    [ ("setup_s", "s", med (fun p -> p.session.setup_s) parts, List.length parts);
      ("throughput_rps", "1/s",
       median_over parts (fun p ->
           List.map (fun (seg, a) -> float_of_int (ok_count a) /. seg.dur_s) (segments p)),
       total_completed);
      ("latency_p50_ms", "ms", Stats.percentile 0.5 runs, Array.length runs);
      ("latency_p99_ms", "ms", Stats.percentile 0.99 runs, Array.length runs);
      ("write_p50_ms", "ms",
       median_over parts (fun p -> List.map (fun a -> Stats.percentile 0.5 (lat a)) (write_groups p)),
       Array.length writes);
      ("ok_frac", "frac", float_of_int (attempted - failed) /. float_of_int attempted,
       attempted);
      ("peak_rss_mb", "MB", med (fun p -> p.rss_mb) parts, List.length parts);
      ("cpu_ms_per_req", "ms",
       med
         (fun p ->
           Array.fold_left (fun a seg -> a +. seg.cpu_s) 0. p.main_segs
           *. 1000. /. float_of_int (max 1 (ok_count p.main)))
         parts,
       total_completed) ] )

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

let emit ~attempted ~failed metrics =
  List.iter
    (fun (name, unit, v, n) -> Printf.printf "  %-34s %14.6g %-6s (n=%d)\n" name v unit n)
    metrics;
  List.iter
    (fun (name, _, v, _) -> if not (Float.is_finite v) then fail "metric %s is not finite" name)
    metrics;
  List.iter (fun m -> Printf.printf "  CHECK FAILED: %s\n" m) (List.rev !failures);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failures = [] && failed = 0)
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v, _) ->
            Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
              (if Float.is_finite v then v else 0.)
              unit)
          metrics))

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

(* The traced run: the streams replayed in-process with spans off and
   on, and prepare's parts timed once per distinct text (a seeded
   sample of at most 12 per family). Each runs in a fresh process of
   this program: a replay leaves its documents' node ids and the
   process heap behind, which would slow whatever ran after it. *)
type replayed =
  | Replayed of Replay.t
  | Prepared of (string * Replay.prep_times) list

let replay_child mode =
  let out = Filename.concat !run_dir (Printf.sprintf "%s-%s.replay" !workload mode) in
  let args =
    [| Sys.executable_name; "--fixq"; !fixq; "--workload"; !workload;
       "--seed"; string_of_int !seed; "--seconds"; string_of_int !seconds;
       "--dir"; !run_dir; "--replay"; mode; "--out"; out |]
  in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stderr Unix.stderr in
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith ("in-process replay failed: " ^ mode));
  let ic = open_in_bin out in
  let (r : replayed) = Marshal.from_channel ic in
  close_in ic;
  Sys.remove out;
  r

let replay_in_this_process mode =
  let dir = Filename.concat !run_dir (Printf.sprintf "%s-replay-%s" !workload mode) in
  Proc.rm_rf dir;
  let r =
    match mode with
    | "off" -> Replayed (Replay.run spec ~dir ~traced:false)
    | "on" -> Replayed (Replay.run spec ~dir ~traced:true)
    | _ ->
      let rng = Fixq_workloads.Rng.create (!seed + 97) in
      let texts =
        Array.to_list (Spec.shuffle rng spec.Spec.texts)
        |> List.fold_left
             (fun (acc, seen) (family, q) ->
               let k = Option.value ~default:0 (List.assoc_opt family seen) in
               if k >= 12 then (acc, seen)
               else (q :: acc, (family, k + 1) :: List.remove_assoc family seen))
             ([], [])
        |> fst |> List.rev
      in
      Prepared (Replay.prepare_parts spec texts)
  in
  Proc.rm_rf dir;
  let oc = open_out_bin !replay_out in
  Marshal.to_channel oc r [];
  close_out oc

let traced () =
  match (replay_child "off", replay_child "on", replay_child "prepare") with
  | Replayed off, Replayed on, Prepared prep -> (off, on, prep)
  | _ -> failwith "in-process replay: unexpected result"

let main () =
  let default_gc = Gc.get () in
  Printf.printf "workload %s, seed %d, %d timed runs, %s\n%!" !workload !seed runs
    (match spec.Spec.server with
    | Spec.Serve { threads; durable } ->
      Printf.sprintf "fixq serve --workers %d%s, %d connection(s)" threads
        (if durable then
           Printf.sprintf
             " --state-dir (snapshot every %d logged ops, fsync; WAL not fsynced)"
             Spec.snapshot_threshold
         else "")
        (Array.length spec.Spec.main)
    | Spec.Cluster { workers; replication } ->
      Printf.sprintf "fixq cluster -j %d -r %d, 1 connection" workers replication);
  let replays = if !trace = 1 then Some (traced ()) else None in
  (* The client keeps every response line until its phase ends: a lazier
     major GC keeps its own pauses out of the timed round trips. *)
  Gc.set { default_gc with Gc.space_overhead = 1000 };
  let parts = socket_run () in
  List.iteri
    (fun i p ->
      let sum f = Array.fold_left (fun a seg -> a +. f seg) 0. p.main_segs in
      let factors = Array.map (fun seg -> seg.factor) p.main_segs in
      let p50 f = Stats.percentile 0.5 (Array.map f (filter is_run p.main)) in
      Printf.printf
        "  part %d: host factor %.2f (%.2f-%.2f over %d segments); raw: set-up %.3f s, %d \
         requests in %.3f s, run p50 %.3f ms; scaled: set-up %.3f s, %.3f s, run p50 %.3f ms, \
         server CPU %.2f s\n"
        (i + 1) (Stats.median factors) (Stats.percentile 0. factors)
        (Stats.percentile 1. factors) (Array.length factors) p.raw_setup_s
        (Array.length p.main)
        (sum (fun seg -> seg.dur_s *. seg.factor))
        (p50 (fun s -> s.raw_ms)) p.session.setup_s (sum (fun seg -> seg.dur_s))
        (p50 (fun s -> s.lat_ms)) (sum (fun seg -> seg.cpu_s)))
    parts;
  print_shares "run requests" (pooled (fun p -> p.run_classes) parts);
  print_shares "writes" (pooled (fun p -> p.write_classes) parts);
  let attempted, failed, e2e = end_to_end parts in
  let metrics =
    match replays with
    | None -> e2e
    | Some (off, on, prep) ->
      let metrics, report, errors =
        Layers.compute spec
          ~socket_classes:(pooled (fun p -> p.raw_classes) parts)
          ~off ~on ~prep
          ~generate_ms:(med (fun p -> p.session.generate_ms) parts)
          ~warm_ms:(med (fun p -> p.session.warm_ms) parts)
      in
      List.iter (fun m -> fail "%s" m) errors;
      print_string report;
      let spans = Filename.concat !run_dir (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed) in
      Layers.write_spans spec ~prep on spans;
      Printf.printf "  spans written to %s\n" spans;
      metrics
  in
  emit ~attempted ~failed metrics

let () =
  if !replay_mode <> "" then replay_in_this_process !replay_mode
  else
  match main () with
  | () ->
    stop_reference_helper ();
    Proc.cleanup ()
  | exception e ->
    stop_reference_helper ();
    Proc.cleanup ();
    Printf.eprintf "benchmark failed: %s\n%!" (Printexc.to_string e);
    exit 1
