(* Durability: the WAL + snapshot pair (lib/durable), recovery
   (Service.Durability), and the server's end-to-end crash/restart
   behaviour — cold starts replay snapshot + tail, torn tails truncate
   to the last complete record with a structured diagnostic (never an
   exception, never silent loss), and a clean shutdown leaves nothing
   to replay. *)

module Wal = Fixq_durable.Wal
module Snapshot = Fixq_durable.Snapshot
module Service = Fixq_service
module Json = Service.Json
module Server = Service.Server
module Durability = Service.Durability

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fixq-durable-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  if not (Sys.file_exists d) then Unix.mkdir d 0o755;
  d

let write_file path bytes =
  let oc = open_out_bin path in
  output_string oc bytes;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ------------------------------------------------------------------ *)
(* WAL unit behaviour                                                  *)
(* ------------------------------------------------------------------ *)

let payloads =
  List.init 20 (fun i ->
      Printf.sprintf {|{"op":"load-doc","uri":"d%d.xml","xml":"<r n=\"%d\"/>"}|}
        i i)

let write_wal dir =
  let path = Filename.concat dir "wal" in
  let w = Wal.open_wal path in
  List.iteri (fun i p -> Wal.append w ~seq:(i + 1) p) payloads;
  Wal.close w;
  path

let test_wal_roundtrip () =
  let path = write_wal (fresh_dir ()) in
  let r = Wal.load path in
  checki "all records back" (List.length payloads) (List.length r.Wal.records);
  checki "nothing truncated" 0 r.Wal.truncated_bytes;
  checkb "no diagnostic" true (r.Wal.diagnostic = None);
  List.iteri
    (fun i (seq, payload) ->
      checki "seq" (i + 1) seq;
      checks "payload" (List.nth payloads i) payload)
    r.Wal.records;
  (* a missing file is an empty, diagnostic-free log *)
  let r = Wal.load (Filename.concat (fresh_dir ()) "absent") in
  checki "missing file: no records" 0 (List.length r.Wal.records);
  checkb "missing file: no diagnostic" true (r.Wal.diagnostic = None)

let test_wal_rewind () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "wal" in
  let w = Wal.open_wal path in
  Wal.append w ~seq:1 {|{"a":1}|};
  let saved = Wal.size w in
  Wal.append w ~seq:2 {|{"b":2}|};
  Wal.rewind w saved;
  Wal.append w ~seq:2 {|{"c":3}|};
  Wal.close w;
  let r = Wal.load path in
  checki "two records" 2 (List.length r.Wal.records);
  checks "rewound record replaced" {|{"c":3}|} (snd (List.nth r.Wal.records 1))

let test_wal_newline_payload_rejected () =
  match Wal.render ~seq:1 "a\nb" with
  | _ -> Alcotest.fail "newline payload must be rejected"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Torn-write recovery fuzz (truncations and byte flips at random      *)
(* offsets must recover a prefix with a diagnostic — never raise,      *)
(* never lose a record silently)                                       *)
(* ------------------------------------------------------------------ *)

let is_prefix_of records =
  let rec go i = function
    | [] -> true
    | (seq, payload) :: rest ->
      i < List.length payloads
      && seq = i + 1
      && payload = List.nth payloads i
      && go (i + 1) rest
  in
  go 0 records

let test_wal_torn_tail_fuzz () =
  let rng = Random.State.make [| 0xD15C |] in
  let dir = fresh_dir () in
  let pristine = read_file (write_wal dir) in
  let total = String.length pristine in
  for _ = 1 to 200 do
    let cut = Random.State.int rng (total + 1) in
    let path = Filename.concat dir "wal" in
    write_file path (String.sub pristine 0 cut);
    let r = Wal.load path in
    checkb "prefix recovered" true (is_prefix_of r.Wal.records);
    checki "accounts for every byte" cut
      (r.Wal.valid_bytes + r.Wal.truncated_bytes);
    if r.Wal.truncated_bytes > 0 then
      checkb "torn tail reported" true (r.Wal.diagnostic <> None);
    (* the valid prefix survives whole: no record before the cut is lost *)
    let complete_before_cut =
      (* records are newline-framed: count full lines within the cut *)
      String.fold_left
        (fun acc c -> if c = '\n' then acc + 1 else acc)
        0 (String.sub pristine 0 r.Wal.valid_bytes)
    in
    checki "no silent loss" complete_before_cut (List.length r.Wal.records);
    (* repair truncates physically; a reopened log appends cleanly *)
    let r2 = Wal.repair path in
    checki "repair keeps the prefix" (List.length r.Wal.records)
      (List.length r2.Wal.records);
    let w = Wal.open_wal path in
    let next = List.length r2.Wal.records + 1 in
    Wal.append w ~seq:next {|{"op":"ping"}|};
    Wal.close w;
    let r3 = Wal.load path in
    checki "clean append after repair" (next) (List.length r3.Wal.records);
    checkb "no diagnostic after repair+append" true (r3.Wal.diagnostic = None)
  done

let test_wal_byte_flip_fuzz () =
  let rng = Random.State.make [| 0xF11B |] in
  let dir = fresh_dir () in
  let pristine = read_file (write_wal dir) in
  let total = String.length pristine in
  for _ = 1 to 200 do
    let off = Random.State.int rng total in
    let b = Bytes.of_string pristine in
    Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x41));
    let path = Filename.concat dir "wal" in
    write_file path (Bytes.to_string b);
    match Wal.load path with
    | r ->
      checkb "prefix recovered after flip" true (is_prefix_of r.Wal.records);
      checkb "flip reported or harmless" true
        (r.Wal.truncated_bytes = 0 || r.Wal.diagnostic <> None)
    | exception e ->
      Alcotest.failf "byte flip at %d raised %s" off (Printexc.to_string e)
  done

(* ------------------------------------------------------------------ *)
(* Snapshot atomicity                                                  *)
(* ------------------------------------------------------------------ *)

let test_snapshot_roundtrip () =
  let dir = fresh_dir () in
  let items = [ {|{"t":"doc","u":"a.xml","x":"<r/>"}|}; {|{"t":"cache"}|} ] in
  (match Snapshot.write ~dir ~meta:{|{"last_seq":7}|} ~items with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (match Snapshot.read ~dir with
  | Ok (Some s) ->
    checks "meta" {|{"last_seq":7}|} s.Snapshot.meta;
    checki "items" 2 (List.length s.Snapshot.items);
    List.iteri
      (fun i it -> checks "item" (List.nth items i) it)
      s.Snapshot.items
  | Ok None -> Alcotest.fail "snapshot missing"
  | Error e -> Alcotest.fail e);
  (* absent dir: Ok None, not an error *)
  match Snapshot.read ~dir:(fresh_dir ()) with
  | Ok None -> ()
  | _ -> Alcotest.fail "absent snapshot must read as None"

let test_snapshot_torn_and_corrupt () =
  let dir = fresh_dir () in
  (match Snapshot.write ~dir ~meta:{|{"last_seq":3}|} ~items:[] with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* a torn tmp file (crash mid-write) must not disturb the committed
     snapshot *)
  write_file (Filename.concat dir "snapshot.tmp") "FXQW1 0 garbage";
  (match Snapshot.read ~dir with
  | Ok (Some s) -> checks "committed snapshot read" {|{"last_seq":3}|} s.Snapshot.meta
  | _ -> Alcotest.fail "torn tmp must be ignored");
  (* corrupting the committed file yields a diagnostic Error, no raise *)
  let path = Snapshot.file ~dir in
  let bytes = read_file path in
  write_file path (String.sub bytes 0 (String.length bytes - 3));
  match Snapshot.read ~dir with
  | Error msg -> checkb "diagnostic" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "truncated snapshot must be invalid"

(* ------------------------------------------------------------------ *)
(* End-to-end server recovery                                          *)
(* ------------------------------------------------------------------ *)

let server_with ?(threshold = 0) dir =
  Server.create
    ~config:
      { Server.default_config with
        state_dir = Some dir; snapshot_threshold = threshold }
    ()

let send server line =
  let (resp, _) = Server.handle_line server line in
  Json.parse resp

let ok j = Json.bool_opt (Json.member "ok" j) = Some true
let str name j = Option.value ~default:"" (Json.str_opt (Json.member name j))

let load_line uri xml =
  Json.to_string
    (Json.Obj
       [ ("op", Json.Str "load-doc"); ("uri", Json.Str uri);
         ("xml", Json.Str xml) ])

let patch_line uri =
  Printf.sprintf
    {|{"op":"patch-doc","uri":%s,"action":"insert","path":"/r","xml":"<z/>"}|}
    (Json.to_string (Json.Str uri))

let run_line ?(extra = "") query =
  Printf.sprintf {|{"op":"run","query":%s%s}|}
    (Json.to_string (Json.Str query))
    extra

let closure_query = {|with $x seeded by doc("t.xml")/r/* recurse $x/*|}

let recovered_stat server name =
  let j = send server {|{"op":"stats"}|} in
  let d = Json.member "durability" (Json.member "stats" j) in
  Option.value ~default:(-1) (Json.int_opt (Json.member name (Json.member "recovered" d)))

let test_server_crash_recovery_wal_only () =
  let dir = fresh_dir () in
  let a = server_with dir in
  checkb "load" true (ok (send a (load_line "t.xml" "<r><a><b/></a></r>")));
  for _ = 1 to 3 do
    checkb "patch" true (ok (send a (patch_line "t.xml")))
  done;
  let expected = str "result" (send a (run_line closure_query)) in
  (* crash: drop the handle without shutdown — state must come back
     from the WAL alone (no snapshot was ever taken) *)
  let b = server_with dir in
  checki "four ops replayed" 4 (recovered_stat b "tail_ops");
  let j = send b (run_line closure_query) in
  checkb "recovered run ok" true (ok j);
  checks "byte-identical after cold start" expected (str "result" j)

let test_server_snapshot_recovery () =
  let dir = fresh_dir () in
  let a = server_with ~threshold:0 dir in
  checkb "load" true (ok (send a (load_line "t.xml" "<r><a><b/></a></r>")));
  for _ = 1 to 5 do
    checkb "patch" true (ok (send a (patch_line "t.xml")))
  done;
  let expected = str "result" (send a (run_line closure_query)) in
  let js = send a {|{"op":"snapshot"}|} in
  checkb "explicit snapshot ok" true (ok js);
  checkb "patch after snapshot" true (ok (send a (patch_line "t.xml")));
  let expected2 = str "result" (send a (run_line ~extra:{|,"cache":false|} closure_query)) in
  ignore expected;
  let b = server_with dir in
  checki "only the post-snapshot op replayed" 1 (recovered_stat b "tail_ops");
  checki "snapshot restored the document" 1 (recovered_stat b "docs");
  let j = send b (run_line closure_query) in
  checkb "recovered run ok" true (ok j);
  checks "byte-identical from snapshot + tail" expected2 (str "result" j)

let test_server_clean_shutdown_replays_nothing () =
  let dir = fresh_dir () in
  let a = server_with dir in
  checkb "load" true (ok (send a (load_line "t.xml" "<r><a/></r>")));
  checkb "patch" true (ok (send a (patch_line "t.xml")));
  let expected = str "result" (send a (run_line closure_query)) in
  let (_, stopped) = Server.handle_line a {|{"op":"shutdown"}|} in
  checkb "shutdown acknowledged" true stopped;
  let b = server_with dir in
  checki "clean restart replays zero ops" 0 (recovered_stat b "tail_ops");
  checki "snapshot carried the document" 1 (recovered_stat b "docs");
  let j = send b (run_line closure_query) in
  checks "byte-identical after clean restart" expected (str "result" j)

let test_server_result_cache_recovered () =
  let dir = fresh_dir () in
  let a = server_with dir in
  checkb "load" true (ok (send a (load_line "t.xml" "<r><a><b/></a></r>")));
  let j1 = send a (run_line closure_query) in
  checkb "first run ok" true (ok j1);
  checks "first run misses" "miss" (str "result_cache" j1);
  checkb "snapshot" true (ok (send a {|{"op":"snapshot"}|}));
  let b = server_with dir in
  checkb "cache entries recovered" true (recovered_stat b "cache_entries" >= 1);
  let j2 = send b (run_line closure_query) in
  checkb "recovered run ok" true (ok j2);
  checks "recovered run hits the restored cache" "hit" (str "result_cache" j2);
  checks "and answers identically" (str "result" j1) (str "result" j2);
  (* the recovered entry is maintainable: a patch after recovery keeps
     byte parity with a fresh recompute *)
  checkb "patch after recovery" true (ok (send b (patch_line "t.xml")));
  let maintained = send b (run_line closure_query) in
  let fresh = send b (run_line ~extra:{|,"cache":false|} closure_query) in
  checks "maintained equals recomputed" (str "result" fresh)
    (str "result" maintained)

(* A cache row as snapshots wrote it before rows recorded what they
   resolved to: its config names the engine and mode that ran
   ([engine:mode:stratified]) and it carries no admission facts. *)
let parent_format_row row =
  match row with
  | Json.Obj fields when str "t" row = "cache" ->
    let stratified =
      match String.split_on_char ':' (str "config" row) with
      | [ _; _; s ] -> s
      | _ -> "false"
    in
    let config =
      String.concat ":" [ str "engine" row; str "mode" row; stratified ]
    in
    Json.Obj
      (List.filter_map
         (fun (k, v) ->
           match k with
           | "engine" | "mode" | "rounds" | "may_diverge" | "over_envelope" ->
             None
           | "config" -> Some (k, Json.Str config)
           | _ -> Some (k, v))
         fields)
  | _ -> row

let test_server_parent_format_cache_rows () =
  let dir = fresh_dir () in
  let a = server_with dir in
  checkb "load" true (ok (send a (load_line "t.xml" "<r><a><b/></a></r>")));
  let j1 = send a (run_line closure_query) in
  checks "the pinned run resolves to delta" "delta" (str "mode" j1);
  checkb "snapshot" true (ok (send a {|{"op":"snapshot"}|}));
  (match Snapshot.read ~dir with
  | Ok (Some s) ->
    let items =
      List.map
        (fun item -> Json.to_string (parent_format_row (Json.parse item)))
        s.Snapshot.items
    in
    checkb "rewritten in the old format" true
      (Snapshot.write ~dir ~meta:s.Snapshot.meta ~items = Ok ())
  | _ -> Alcotest.fail "expected a committed snapshot");
  let b = server_with dir in
  checki "the old row is recovered" 1 (recovered_stat b "cache_entries");
  let explicit = send b (run_line ~extra:{|,"mode":"delta"|} closure_query) in
  checks "an explicit-mode request hits it" "hit" (str "result_cache" explicit);
  checks "with the mode from its config" "delta" (str "mode" explicit);
  checks "and the engine" "interp" (str "engine" explicit);
  checks "answering identically" (str "result" j1) (str "result" explicit);
  let pinned = send b (run_line closure_query) in
  checks "a pinned request recomputes" "miss" (str "result_cache" pinned);
  checks "correctly" (str "result" j1) (str "result" pinned);
  checks "under the same mode" "delta" (str "mode" pinned)

let test_server_torn_wal_tail_recovers_prefix () =
  let dir = fresh_dir () in
  let a = server_with dir in
  checkb "load" true (ok (send a (load_line "t.xml" "<r><a/></r>")));
  checkb "patch" true (ok (send a (patch_line "t.xml")));
  (* tear the last record in half, as a crash mid-append would *)
  let wal = Filename.concat dir "wal" in
  let bytes = read_file wal in
  write_file wal (String.sub bytes 0 (String.length bytes - 7));
  let b = server_with dir in
  checki "only the complete record replayed" 1 (recovered_stat b "tail_ops");
  checkb "torn bytes reported" true (recovered_stat b "truncated_bytes" > 0);
  let j = send b (run_line closure_query) in
  checkb "server serves the recovered prefix" true (ok j)

let test_snapshot_threshold_triggers () =
  let dir = fresh_dir () in
  let a = server_with ~threshold:3 dir in
  checkb "load" true (ok (send a (load_line "t.xml" "<r><a/></r>")));
  for _ = 1 to 4 do
    checkb "patch" true (ok (send a (patch_line "t.xml")))
  done;
  let j = send a {|{"op":"stats"}|} in
  let d = Json.member "durability" (Json.member "stats" j) in
  checkb "op-count threshold took a snapshot" true
    (Option.value ~default:0 (Json.int_opt (Json.member "snapshots" d)) >= 1);
  checkb "snapshot file exists" true
    (Sys.file_exists (Filename.concat dir "snapshot"))

let () =
  Alcotest.run "durable"
    [ ("wal",
       [ Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
         Alcotest.test_case "rewind" `Quick test_wal_rewind;
         Alcotest.test_case "newline payload rejected" `Quick
           test_wal_newline_payload_rejected ]);
      ("torn-write fuzz",
       [ Alcotest.test_case "random truncation" `Quick test_wal_torn_tail_fuzz;
         Alcotest.test_case "random byte flip" `Quick test_wal_byte_flip_fuzz ]);
      ("snapshot",
       [ Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip;
         Alcotest.test_case "torn tmp + corrupt file" `Quick
           test_snapshot_torn_and_corrupt ]);
      ("server",
       [ Alcotest.test_case "crash recovery from WAL" `Quick
           test_server_crash_recovery_wal_only;
         Alcotest.test_case "snapshot + tail recovery" `Quick
           test_server_snapshot_recovery;
         Alcotest.test_case "clean shutdown replays nothing" `Quick
           test_server_clean_shutdown_replays_nothing;
         Alcotest.test_case "result cache + IVM recovered" `Quick
           test_server_result_cache_recovered;
         Alcotest.test_case "old-format cache rows recovered" `Quick
           test_server_parent_format_cache_rows;
         Alcotest.test_case "torn WAL tail keeps the prefix" `Quick
           test_server_torn_wal_tail_recovers_prefix;
         Alcotest.test_case "op-count snapshot threshold" `Quick
           test_snapshot_threshold_triggers ]) ]
