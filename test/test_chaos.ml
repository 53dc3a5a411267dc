(* The fault-injection registry (Fixq_chaos), the resource governor,
   and the robustness behaviour they buy the serving layer: structured
   degradation instead of dead processes, caches intact after a failed
   request, and a wire loop that survives arbitrary garbage. *)

module Chaos = Fixq_chaos
module Service = Fixq_service
module Json = Service.Json
module Server = Service.Server
module Governor = Service.Governor
module Frame = Service.Frame

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* every test leaves the process-global registry clean *)
let with_chaos spec f =
  (match Chaos.configure spec with
  | Ok () -> ()
  | Error e -> Alcotest.failf "configure %S: %s" spec e);
  Fun.protect ~finally:Chaos.reset f

(* ------------------------------------------------------------------ *)
(* Schedule parsing                                                    *)
(* ------------------------------------------------------------------ *)

let test_spec_errors () =
  let rejected spec =
    match Chaos.configure spec with
    | Ok () -> Alcotest.failf "expected rejection of %S" spec
    | Error _ -> ()
  in
  rejected "nonsense";
  rejected "bogus.point=drop";
  (* a point name from older schedules that no code checks any more *)
  rejected "seed=1,coordinator.scatter=drop";
  rejected "transport.send=explode";
  rejected "transport.send=drop:1.5";
  rejected "transport.send=drop:x";
  rejected "transport.send=drop@0";
  rejected "transport.send=drop#0";
  rejected "seed=abc";
  rejected "transport.send=delayxx";
  (* a bad item must not clobber the active schedule *)
  with_chaos "server.handle=drop" (fun () ->
      rejected "bogus.point=drop";
      checkb "previous schedule still active" true (Chaos.active ()))

let test_spec_inactive () =
  Chaos.reset ();
  checkb "inactive after reset" true (not (Chaos.active ()));
  checkb "inactive check is None" true (Chaos.check "transport.send" = None);
  (match Chaos.configure "" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  checkb "empty spec stays inactive" true (not (Chaos.active ()));
  (* seed alone activates nothing *)
  (match Chaos.configure "seed=9" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  checkb "seed-only spec stays inactive" true (not (Chaos.active ()));
  Chaos.reset ();
  (match Chaos.check "no.such.point" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for unknown point")

(* A point handle is validated once, when it is made; firing it reads
   the same schedule as [check] on its name. *)
let test_point_handles () =
  Chaos.reset ();
  (match Chaos.point "no.such.point" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for an unknown point");
  let p = Chaos.point "store.read" in
  checkb "inactive handle is None" true (Chaos.fire p = None);
  (match Chaos.configure "store.read=drop@2" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  checkb "first arrival passes" true (Chaos.fire p = None);
  checkb "second arrival, by name, fires" true (Chaos.check "store.read" = Some Chaos.Drop);
  Chaos.reset ()

(* ------------------------------------------------------------------ *)
(* Firing semantics                                                    *)
(* ------------------------------------------------------------------ *)

let pattern point n =
  List.init n (fun _ -> match Chaos.check point with Some _ -> '1' | None -> '0')
  |> List.to_seq |> String.of_seq

let test_nth_and_max () =
  with_chaos "seed=1,server.handle=drop@3" (fun () ->
      checks "@3 fires exactly on the third arrival" "0010000000"
        (pattern "server.handle" 10);
      checki "one event" 1 (Chaos.fired ()));
  with_chaos "seed=1,server.handle=drop#2" (fun () ->
      checks "#2 caps total firings" "1100000000"
        (pattern "server.handle" 10));
  with_chaos "seed=1,server.handle=drop" (fun () ->
      checks "default fires always" "1111111111"
        (pattern "server.handle" 10))

let test_probability_deterministic () =
  let spec = "seed=42,transport.recv=drop:0.5#100" in
  let run () = with_chaos spec (fun () -> pattern "transport.recv" 60) in
  let a = run () and b = run () in
  checks "same seed, same firing pattern" a b;
  checkb "some fired" true (String.contains a '1');
  checkb "some did not" true (String.contains a '0');
  let c =
    with_chaos "seed=43,transport.recv=drop:0.5#100" (fun () ->
        pattern "transport.recv" 60)
  in
  checkb "different seed, different pattern" true (a <> c)

let test_rules_and_events () =
  with_chaos "seed=5,fixpoint.round=delay1@2,fixpoint.round=oom@4" (fun () ->
      let faults =
        List.init 5 (fun _ -> Chaos.check "fixpoint.round")
      in
      (match faults with
      | [ None; Some (Chaos.Delay _); None; Some Chaos.Oom; None ] -> ()
      | _ -> Alcotest.fail "independent rules on one point");
      let evs = Chaos.events () in
      checki "two events" 2 (List.length evs);
      checks "event order" "delay1,oom"
        (String.concat ","
           (List.map (fun e -> Chaos.fault_to_string e.Chaos.fault) evs));
      checkb "points recorded" true
        (List.for_all (fun e -> e.Chaos.point = "fixpoint.round") evs))

let test_event_log_file () =
  let path = Filename.temp_file "fixq-chaos" ".log" in
  Chaos.set_log (Some path);
  with_chaos "seed=1,store.read=drop@1" (fun () ->
      Chaos.set_log (Some path);
      ignore (Chaos.check "store.read"));
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  (match String.split_on_char ' ' line with
  | [ pid; seq; point; fault ] ->
    checki "pid" (Unix.getpid ()) (int_of_string pid);
    checks "seq" "1" seq;
    checks "point" "store.read" point;
    checks "fault" "drop" fault
  | _ -> Alcotest.failf "malformed log line %S" line)

(* ------------------------------------------------------------------ *)
(* Governor                                                            *)
(* ------------------------------------------------------------------ *)

let test_governor_shedding () =
  let g =
    Governor.create
      { Governor.default_config with max_pending = Some 2; retry_after_ms = 77 }
  in
  Governor.admit g;
  Governor.admit g;
  checki "two in flight" 2 (Governor.inflight g);
  (match Governor.admit g with
  | () -> Alcotest.fail "expected shed"
  | exception Governor.Shed { retry_after_ms; _ } ->
    checki "retry hint" 77 retry_after_ms);
  Governor.release g;
  Governor.admit g;  (* back under the cap *)
  Governor.release g;
  Governor.release g;
  checki "drained" 0 (Governor.inflight g);
  checkb "shed counted" true
    (List.assoc "shed" (Governor.counter_rows g) = 1)

let test_governor_memory_budget () =
  let g =
    Governor.create { Governor.default_config with max_heap_mb = Some 8 }
  in
  Governor.with_memory_budget g (fun ~round_check ->
      round_check ();  (* under budget: no-op *)
      (* 4M floats = 32 MB, allocated directly on the major heap *)
      let big = Array.make (4 * 1024 * 1024) 0.0 in
      Gc.full_major ();
      match round_check () with
      | () -> Alcotest.fail "expected Out_of_memory past the budget"
      | exception Out_of_memory -> ignore (Sys.opaque_identity big));
  (* without a budget the hook must be free *)
  let g0 = Governor.create Governor.default_config in
  Governor.with_memory_budget g0 (fun ~round_check -> round_check ())

(* ------------------------------------------------------------------ *)
(* Server-level degradation                                            *)
(* ------------------------------------------------------------------ *)

let tree_xml = "<r><a><b><c/><c/></b><b><c/></b></a><a><b><c/></b></a></r>"
let closure_query = {|with $x seeded by doc("t.xml")/r/* recurse $x/*|}

let load_line =
  Printf.sprintf {|{"op":"load-doc","uri":"t.xml","xml":%s}|}
    (Json.to_string (Json.Str tree_xml))

let run_line ?(extra = "") query =
  Printf.sprintf {|{"op":"run","query":%s%s}|}
    (Json.to_string (Json.Str query))
    extra

let ok j = Json.bool_opt (Json.member "ok" j) = Some true
let str name j = Option.value ~default:"" (Json.str_opt (Json.member name j))

let parse_response line =
  match Json.parse line with
  | j -> j
  | exception Json.Parse_error m -> Alcotest.failf "unparseable response: %s" m

let request server line =
  let (resp, _) = Server.handle_line server line in
  parse_response resp

(* A simulated Out_of_memory mid-round degrades to a structured error;
   the same server keeps answering and neither cache holds a poisoned
   entry from the failed run. *)
let test_server_oom_degrades () =
  let server = Server.create () in
  ignore (request server load_line);
  let before =
    request server (run_line closure_query)
  in
  checkb "warm-up run ok" true (ok before);
  with_chaos "seed=3,fixpoint.round=oom@2" (fun () ->
      let j = request server (run_line ~extra:{|,"cache":false|} closure_query) in
      checkb "request failed, server answered" true (not (ok j));
      checkb "structured out-of-memory error" true
        (String.length (str "error" j) >= 13
        && String.sub (str "error" j) 0 13 = "out of memory"));
  (* chaos off: the server still works, and the cached entry from the
     warm-up run is still the correct one *)
  let j = request server (run_line closure_query) in
  checkb "server still answers" true (ok j);
  checks "cache intact" (str "result" before) (str "result" j);
  checks "served from cache" "hit" (str "result_cache" j);
  let stats = Json.member "stats" (request server {|{"op":"stats"}|}) in
  checkb "oom counted" true
    (Json.int_opt (Json.member "oom" (Json.member "governor" stats))
    = Some 1)

let test_server_sheds_with_retry_hint () =
  let config =
    { Server.default_config with
      governor =
        { Governor.default_config with max_pending = Some 0;
          retry_after_ms = 55 } }
  in
  let server = Server.create ~config () in
  let j = request server (run_line closure_query) in
  checkb "query work shed" true (not (ok j));
  checkb "overloaded error" true
    (String.length (str "error" j) >= 10
    && String.sub (str "error" j) 0 10 = "overloaded");
  checkb "retry_after_ms hint" true
    (Json.int_opt (Json.member "retry_after_ms" j) = Some 55);
  (* control-plane ops are never shed *)
  let p = request server {|{"op":"ping"}|} in
  checkb "ping still answered" true (ok p);
  let s = request server {|{"op":"stats"}|} in
  checkb "stats still answered" true (ok s)

let test_server_handle_chaos_faults () =
  let server = Server.create () in
  ignore (request server load_line);
  with_chaos "seed=2,server.handle=drop@1" (fun () ->
      let j = request server (run_line closure_query) in
      checkb "drop becomes an error response" true (not (ok j)));
  let j = request server (run_line closure_query) in
  checkb "healthy afterwards" true (ok j)

(* ------------------------------------------------------------------ *)
(* Protocol fuzz                                                       *)
(* ------------------------------------------------------------------ *)

let base_frames =
  [ {|{"op":"ping"}|};
    run_line closure_query;
    load_line;
    {|{"op":"stats","format":"prometheus"}|};
    {|{"op":"check","query":"1 + 2"}|};
    {|{"op":"load-doc","uri":"g.xml","generate":"xmark","size":0.001}|} ]

let mutate rng frame =
  let n = String.length frame in
  match Random.State.int rng 5 with
  | 0 -> String.sub frame 0 (Random.State.int rng (max 1 n))  (* truncate *)
  | 1 ->
    let b = Bytes.of_string frame in
    Bytes.set b (Random.State.int rng (max 1 n))
      (Char.chr (Random.State.int rng 256));
    Bytes.to_string b  (* flip a byte *)
  | 2 ->
    let at = Random.State.int rng (n + 1) in
    String.sub frame 0 at
    ^ String.make 1 (Char.chr (Random.State.int rng 256))
    ^ String.sub frame at (n - at)  (* insert a byte *)
  | 3 -> frame ^ frame  (* doubled: trailing garbage *)
  | _ ->
    String.concat ""
      (List.init (Random.State.int rng 64) (fun _ ->
           String.make 1 (Char.chr (32 + Random.State.int rng 95))))

(* Whatever bytes arrive, the handler answers a well-formed frame and
   never raises — on the single-process server and on the cluster
   coordinator alike. *)
let fuzz_handler name handle =
  let rng = Random.State.make [| 0xC0FFEE |] in
  for _ = 1 to 400 do
    let frame =
      mutate rng (List.nth base_frames (Random.State.int rng (List.length base_frames)))
    in
    match handle frame with
    | (resp, _shutdown) -> (
      match Json.parse resp with
      | j ->
        checkb
          (Printf.sprintf "%s: response carries ok (frame %S)" name frame)
          true
          (Json.bool_opt (Json.member "ok" j) <> None)
      | exception Json.Parse_error m ->
        Alcotest.failf "%s: unparseable response %S to %S: %s" name resp frame
          m)
    | exception e ->
      Alcotest.failf "%s: handler raised %s on %S" name
        (Printexc.to_string e) frame
  done

let test_fuzz_server () =
  let server = Server.create () in
  fuzz_handler "server" (Server.handle_line server)

let test_fuzz_coordinator () =
  let module Coordinator = Fixq_cluster.Coordinator in
  let servers = List.init 2 (fun i -> (Printf.sprintf "w%d" i, Server.create ())) in
  let send name ~timeout_ms:_ line =
    let (resp, _) = Server.handle_line (List.assoc name servers) line in
    Ok resp
  in
  let backend =
    { Coordinator.workers = List.map fst servers; send;
      info = (fun _ -> []); restarts = (fun () -> 0); stop = ignore;
      add_worker = (fun () -> Error "fuzz harness: fixed fleet");
      retire_worker = ignore; kill_worker = ignore }
  in
  let c =
    Coordinator.create
      ~config:{ Coordinator.default_config with backoff_ms = 1. }
      backend
  in
  fuzz_handler "coordinator" (Coordinator.handle_line c)

(* deep nesting must come back as a parse error, not a stack overflow
   ripping through the serve loop *)
let test_fuzz_deep_nesting () =
  let server = Server.create () in
  let deep = String.make 200_000 '[' in
  let (resp, _) = Server.handle_line server deep in
  let j = parse_response resp in
  checkb "deep nesting answered" true (not (ok j));
  let deep_obj =
    String.concat "" (List.init 100_000 (fun _ -> {|{"a":|})) ^ "1"
  in
  let (resp, _) = Server.handle_line server deep_obj in
  checkb "deep objects answered" true (not (ok (parse_response resp)))

(* the pipe transport: a stream dying mid-frame yields a protocol error
   frame, not a truncated request handed to the handler *)
let test_pipe_truncated_frame () =
  let server = Server.create () in
  let (r_in, w_in) = Unix.pipe () in
  let (r_out, w_out) = Unix.pipe () in
  let ic = Unix.in_channel_of_descr r_in in
  let oc = Unix.out_channel_of_descr w_out in
  let writer =
    Thread.create
      (fun () ->
        let out = Unix.out_channel_of_descr w_in in
        output_string out "{\"op\":\"ping\"}\n";
        output_string out "{\"op\":\"ping\"";  (* no newline: cut mid-frame *)
        flush out;
        close_out out)
      ()
  in
  Server.serve_pipe server ic oc;
  Thread.join writer;
  close_out oc;
  let resp_ic = Unix.in_channel_of_descr r_out in
  let first = input_line resp_ic in
  let second = input_line resp_ic in
  close_in resp_ic;
  (try Unix.close w_out with Unix.Unix_error _ -> ());
  checkb "complete frame answered" true (ok (parse_response first));
  let j = parse_response second in
  checkb "truncated frame answered with an error" true (not (ok j));
  checkb "protocol error named" true
    (String.length (str "error" j) >= 14
    && String.sub (str "error" j) 0 14 = "protocol error")

let test_frame_reader () =
  let feed s f =
    let (r, w) = Unix.pipe () in
    let oc = Unix.out_channel_of_descr w in
    output_string oc s;
    close_out oc;
    let ic = Unix.in_channel_of_descr r in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)
  in
  feed "hello\nworld" (fun ic ->
      (match Frame.read ic with
      | `Line l -> checks "first line" "hello" l
      | _ -> Alcotest.fail "expected line");
      (match Frame.read ic with
      | `Truncated p -> checks "partial bytes" "world" p
      | _ -> Alcotest.fail "expected truncation");
      match Frame.read ic with
      | `Eof -> ()
      | _ -> Alcotest.fail "expected eof");
  feed "" (fun ic ->
      match Frame.read ic with
      | `Eof -> ()
      | _ -> Alcotest.fail "expected eof on empty stream");
  feed "0123456789\nnext\n" (fun ic ->
      (match Frame.read ~max_len:4 ic with
      | `Oversized -> ()
      | _ -> Alcotest.fail "expected oversized");
      match Frame.read ~max_len:4 ic with
      | `Line l -> checks "stream stays framed after oversize" "next" l
      | _ -> Alcotest.fail "expected next line")

(* The per-byte reader [Frame.read] replaced, kept as the oracle: one
   [input_char] per byte, the same four outcomes. *)
let oracle_read ?(max_len = Frame.default_max_len) ic =
  let buf = Buffer.create 256 in
  let rec go oversized =
    match input_char ic with
    | exception End_of_file ->
      if Buffer.length buf = 0 && not oversized then `Eof
      else `Truncated (Buffer.contents buf)
    | '\n' -> if oversized then `Oversized else `Line (Buffer.contents buf)
    | _ when oversized -> go true
    | c ->
      if Buffer.length buf >= max_len then begin
        Buffer.clear buf;
        go true
      end
      else begin
        Buffer.add_char buf c;
        go false
      end
  in
  go false

type frame_case = {
  sizes : int list;  (** frame lengths, newline excluded *)
  terminated : bool;  (** whether the last frame has its newline *)
  max_len : int option;
  seed : int;  (** frame bytes and write chunk sizes *)
}

let gen_frame_case =
  let open QCheck2.Gen in
  let max_len =
    frequency
      [ (3, pure None); (3, map Option.some (int_bound 64));
        (2, map Option.some (int_range 60_000 140_000)) ]
  in
  let size max_len =
    frequency
      [ (5, int_bound 100);
        (2, int_range 65_000 66_100);  (* around the 64 KiB channel buffer *)
        (1, int_bound 200_000);
        (1, int_range 200_000 300_000);  (* three to five buffer fills *)
        (* at the limit, where a frame is kept or refused *)
        (match max_len with
         | None -> (0, pure 0)
         | Some m -> (3, map (fun d -> max 0 (m + d)) (int_range (-1) 1))) ]
  in
  max_len >>= fun max_len ->
  map
    (fun (sizes, terminated, seed) -> { sizes; terminated; max_len; seed })
    (triple (list_size (int_range 0 6) (size max_len)) bool int)

let print_frame_case c =
  Printf.sprintf "{sizes=[%s]; terminated=%b; max_len=%s; seed=%d}"
    (String.concat ";" (List.map string_of_int c.sizes))
    c.terminated
    (match c.max_len with None -> "default" | Some n -> string_of_int n)
    c.seed

let frame_stream c =
  let rng = Random.State.make [| c.seed |] in
  let frame n =
    String.init n (fun _ ->
        (* any byte but the newline; '\r' and '\000' included *)
        let b = Random.State.int rng 255 in
        Char.chr (if b >= 10 then b + 1 else b))
  in
  let body = String.concat "\n" (List.map frame c.sizes) in
  if c.terminated && c.sizes <> [] then body ^ "\n" else body

(* Read every outcome up to [`Eof] from [stream], written through a
   pipe by another thread in random-sized chunks. *)
let outcomes_through_pipe ~seed read stream =
  let (r, w) = Unix.pipe () in
  let writer =
    Thread.create
      (fun () ->
        let rng = Random.State.make [| seed |] in
        let n = String.length stream in
        let rec go off =
          if off < n then begin
            let len = min (n - off) (1 + Random.State.int rng 90_000) in
            let wrote = Unix.write_substring w stream off len in
            go (off + wrote)
          end
        in
        go 0;
        Unix.close w)
      ()
  in
  let ic = Unix.in_channel_of_descr r in
  let rec collect acc =
    match read ic with
    | `Eof -> List.rev (`Eof :: acc)
    | o -> collect (o :: acc)
  in
  let got = collect [] in
  Thread.join writer;
  close_in ic;
  got

let show_outcome = function
  | `Line l -> Printf.sprintf "Line(%d bytes)" (String.length l)
  | `Truncated p -> Printf.sprintf "Truncated(%d bytes)" (String.length p)
  | `Oversized -> "Oversized"
  | `Eof -> "Eof"

(* The bulk reader answers exactly the oracle's sequence of outcomes
   on [c]'s stream, so it stays framed after an oversized frame. *)
let frame_read_agrees c =
  let stream = frame_stream c in
  let got =
    outcomes_through_pipe ~seed:c.seed
      (fun ic -> Frame.read ?max_len:c.max_len ic)
      stream
  in
  let want =
    outcomes_through_pipe ~seed:(c.seed + 1)
      (fun ic -> oracle_read ?max_len:c.max_len ic)
      stream
  in
  if got <> want then
    QCheck2.Test.fail_reportf "got [%s]\nwant [%s]"
      (String.concat "; " (List.map show_outcome got))
      (String.concat "; " (List.map show_outcome want));
  true

(* Frames from empty to 300 KB that cross the channel buffer, with and
   without a final newline, under small and large [max_len]. *)
let prop_frame_read_matches_oracle =
  QCheck2.Test.make ~count:60 ~name:"Frame.read = per-byte oracle"
    ~print:print_frame_case gen_frame_case frame_read_agrees

(* The same check on frames that span three and four buffer fills, so
   that every run assembles a line and a truncated tail from pieces. *)
let test_frame_read_spanning () =
  Alcotest.(check bool) "agrees with the oracle" true
    (frame_read_agrees
       { sizes = [ 250_000; 10; 200_000 ]; terminated = false; max_len = None; seed = 7 })

let () =
  Alcotest.run "chaos"
    [ ("spec",
       [ Alcotest.test_case "malformed schedules rejected" `Quick
           test_spec_errors;
         Alcotest.test_case "inactive fast path" `Quick test_spec_inactive;
         Alcotest.test_case "point handles" `Quick test_point_handles ]);
      ("firing",
       [ Alcotest.test_case "@nth and #max" `Quick test_nth_and_max;
         Alcotest.test_case "seeded determinism" `Quick
           test_probability_deterministic;
         Alcotest.test_case "independent rules and events" `Quick
           test_rules_and_events;
         Alcotest.test_case "event log file" `Quick test_event_log_file ]);
      ("governor",
       [ Alcotest.test_case "load shedding" `Quick test_governor_shedding;
         Alcotest.test_case "memory budget" `Quick
           test_governor_memory_budget ]);
      ("degradation",
       [ Alcotest.test_case "oom mid-round degrades, caches intact" `Quick
           test_server_oom_degrades;
         Alcotest.test_case "shed with retry_after hint" `Quick
           test_server_sheds_with_retry_hint;
         Alcotest.test_case "handle-point faults answered" `Quick
           test_server_handle_chaos_faults ]);
      ("fuzz",
       [ Alcotest.test_case "server survives mutated frames" `Quick
           test_fuzz_server;
         Alcotest.test_case "coordinator survives mutated frames" `Quick
           test_fuzz_coordinator;
         Alcotest.test_case "deep nesting is a parse error" `Quick
           test_fuzz_deep_nesting;
         Alcotest.test_case "pipe answers truncated frames" `Quick
           test_pipe_truncated_frame;
         Alcotest.test_case "frame reader" `Quick test_frame_reader;
         QCheck_alcotest.to_alcotest prop_frame_read_matches_oracle;
         Alcotest.test_case "Frame.read over three buffer fills" `Quick
           test_frame_read_spanning ]) ]
