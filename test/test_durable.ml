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
    (str "result" maintained);
  (* the hit says what the maintenance did, and a snapshot keeps it *)
  let maintenance = Json.member "maintenance" maintained in
  checkb "maintained hit reports its maintenance" true (maintenance <> Json.Null);
  checkb "snapshot after maintenance" true (ok (send b {|{"op":"snapshot"}|}));
  let c = server_with dir in
  let j3 = send c (run_line closure_query) in
  checks "recovered maintained entry hits" "hit" (str "result_cache" j3);
  checks "maintenance survives recovery" (Json.to_string maintenance)
    (Json.to_string (Json.member "maintenance" j3))

(* Results whose bytes need JSON escaping: quotes, a backslash, a tab
   and markup in text and attribute values. *)
let escape_heavy_doc =
  "<r><a k=\"&quot;hi&quot;\"><b t=\"&amp;\">x &lt; \"y\" \\ z\t</b></a></r>"

(* Snapshot rows carry each result as the escaped bytes the cache
   holds; they must be exactly what printing the plain string as a
   [Json.Str] gave, and a restart must answer and maintain as before. *)
let test_snapshot_rows_keep_str_encoding () =
  let dir = fresh_dir () in
  let a = server_with dir in
  checkb "load" true (ok (send a (load_line "t.xml" escape_heavy_doc)));
  let text_query = {|doc("t.xml")//b/text()|} in
  ignore (send a (run_line closure_query));
  ignore (send a (run_line text_query));
  let (hit_before, _) = Server.handle_line a (run_line closure_query) in
  checks "cached before the snapshot" "hit"
    (str "result_cache" (Json.parse hit_before));
  checkb "snapshot" true (ok (send a {|{"op":"snapshot"}|}));
  let items =
    match Snapshot.read ~dir with
    | Ok (Some s) -> s.Snapshot.items
    | _ -> Alcotest.fail "snapshot unreadable"
  in
  let rows = List.map Json.parse items in
  let cache_rows = List.filter (fun r -> str "t" r = "cache") rows in
  checki "both results cached" 2 (List.length cache_rows);
  checkb "an IVM-adopted row" true
    (List.exists (fun r -> Json.member "ivm" r <> Json.Null) cache_rows);
  checkb "results needed escaping" true
    (List.for_all
       (fun r -> String.contains (str "serialized" r) '"')
       cache_rows);
  List.iter
    (fun item ->
      checks "row = its Json.Str printing" (Json.to_string (Json.parse item))
        item)
    items;
  let b = server_with dir in
  let (hit_after, _) = Server.handle_line b (run_line closure_query) in
  checks "restored hit answers with the same bytes" hit_before hit_after;
  let j = send b (patch_line "t.xml") in
  checki "revived entry maintained" 1
    (Option.value ~default:0 (Json.int_opt (Json.member "maintained" j)));
  let maintained = send b (run_line closure_query) in
  checkb "maintenance reported" true
    (Json.member "maintenance" maintained <> Json.Null);
  checks "maintained = recomputed"
    (str "result" (send b (run_line ~extra:{|,"cache":false|} closure_query)))
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

(* Rewrite a cache row's IVM items to ranks shifted by [k], the way a
   row went stale on older servers, which wrote it once at adoption
   while later patches renumbered the tree. *)
let shifted_ivm_row k row =
  let map_field name f = function
    | Json.Obj fields ->
      Json.Obj (List.map (fun (n, v) -> (n, if n = name then f v else v)) fields)
    | j -> j
  in
  let shift = function
    | Json.List items ->
      Json.List
        (List.map
           (map_field "r" (fun r ->
                Json.of_int (Option.value ~default:0 (Json.int_opt r) + k)))
           items)
    | j -> j
  in
  map_field "ivm" (map_field "items" shift) row

let test_server_stale_ivm_rows_not_revived () =
  let dir = fresh_dir () in
  let a = server_with dir in
  checkb "load" true
    (ok (send a (load_line "t.xml" "<r><a><b/></a><a><b/><c/></a><d/></r>")));
  let j1 = send a (run_line closure_query) in
  checkb "snapshot" true (ok (send a {|{"op":"snapshot"}|}));
  (match Snapshot.read ~dir with
  | Ok (Some s) ->
    let items =
      List.map
        (fun item -> Json.to_string (shifted_ivm_row 1 (Json.parse item)))
        s.Snapshot.items
    in
    checkb "rewritten with shifted ranks" true
      (Snapshot.write ~dir ~meta:s.Snapshot.meta ~items = Ok ())
  | _ -> Alcotest.fail "expected a committed snapshot");
  let b = server_with dir in
  checki "the entry is recovered" 1 (recovered_stat b "cache_entries");
  checki "without maintenance" 0 (recovered_stat b "ivm_entries");
  let hit = send b (run_line closure_query) in
  checks "it still hits" "hit" (str "result_cache" hit);
  checks "with its bytes" (str "result" j1) (str "result" hit);
  let patched = send b (patch_line "t.xml") in
  checkb "patch" true (ok patched);
  checkb "nothing to maintain" true
    (Json.int_opt (Json.member "maintained" patched) = Some 0);
  let after = send b (run_line closure_query) in
  checks "the next run recomputes" "miss" (str "result_cache" after);
  checks "to the cache:false bytes"
    (str "result" (send b (run_line ~extra:{|,"cache":false|} closure_query)))
    (str "result" after)

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

(* A node's portable rank — its id offset from its root, which snapshot
   IVM rows carry — must be its position in a preorder walk (element,
   attributes, children) on every path that registers a tree and after
   every kind of patch. *)
let check_ranks label server uri =
  let query =
    Printf.sprintf {|with $x seeded by doc(%S) recurse ($x/node() | $x/@*)|} uri
  in
  (* runs first, so an unregistered [uri] takes the lazy doc() load *)
  checkb (label ^ ": run") true (ok (send server (run_line query)));
  let reg = Service.Store.registry (Server.store server) in
  let root =
    match Fixq_xdm.Doc_registry.find ~registry:reg uri with
    | Some root -> root
    | None -> Alcotest.failf "%s: %s not loaded" label uri
  in
  let walk = ref [] in
  let rec go (n : Fixq_xdm.Node.t) =
    walk := n :: !walk;
    Array.iter go n.attributes;
    Array.iter go n.children
  in
  go root;
  let nodes = Array.of_list (List.rev !walk) in
  Array.iteri
    (fun i (n : Fixq_xdm.Node.t) ->
      checki (label ^ ": id offset = preorder position") i (n.id - root.id))
    nodes

let test_portable_ranks () =
  let dir = fresh_dir () in
  let server = server_with dir in
  let xml = {|<r a="1"><b c="2">t<d/></b><!--c--><e/></r>|} in
  ignore (send server (load_line "x.xml" xml));
  check_ranks "xml" server "x.xml";
  let path = Filename.concat dir "f.xml" in
  write_file path xml;
  ignore
    (send server
       (Printf.sprintf {|{"op":"load-doc","uri":"f.xml","path":%s}|}
          (Json.to_string (Json.Str path))));
  check_ranks "file" server "f.xml";
  ignore
    (send server
       {|{"op":"load-doc","uri":"g.xml","generate":"curriculum","size":6,"seed":3}|});
  check_ranks "generator" server "g.xml";
  let lazy_path = Filename.concat dir "lazy.xml" in
  write_file lazy_path xml;
  check_ranks "lazy doc()" server lazy_path;
  List.iter
    (fun (label, action, path, fields) ->
      let resp =
        send server
          (Json.to_string
             (Json.Obj
                ([ ("op", Json.Str "patch-doc"); ("uri", Json.Str "x.xml");
                   ("action", Json.Str action); ("path", Json.Str path) ]
                @ fields)))
      in
      checkb (label ^ " applied") true (ok resp);
      check_ranks label server "x.xml")
    [ ("into-first", "insert", "/r",
       [ ("position", Json.Str "into-first");
         ("xml", Json.Str {|<p q="3"><s/></p>|}) ]);
      ("into-last", "insert", "/r", [ ("xml", Json.Str "<l>z</l>") ]);
      ("before", "insert", "/r/b",
       [ ("position", Json.Str "before"); ("xml", Json.Str {|<v w="4"/>|}) ]);
      ("after", "insert", "/r/b",
       [ ("position", Json.Str "after"); ("xml", Json.Str "<f/>") ]);
      ("set-text", "set-text", "/r/b", [ ("text", Json.Str "new") ]);
      ("replace", "replace", "/r/e",
       [ ("xml", Json.Str {|<e2 z="1">y</e2>|}) ]);
      ("delete", "delete", "/r/p", []) ];
  checkb "snapshot" true (ok (send server {|{"op":"snapshot"}|}));
  let recovered = server_with dir in
  List.iter
    (fun uri -> check_ranks ("recovered " ^ uri) recovered uri)
    [ "x.xml"; "f.xml"; "g.xml" ]

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
         Alcotest.test_case "snapshot rows keep the Json.Str encoding" `Quick
           test_snapshot_rows_keep_str_encoding;
         Alcotest.test_case "old-format cache rows recovered" `Quick
           test_server_parent_format_cache_rows;
         Alcotest.test_case "stale IVM rows not revived" `Quick
           test_server_stale_ivm_rows_not_revived;
         Alcotest.test_case "torn WAL tail keeps the prefix" `Quick
           test_server_torn_wal_tail_recovers_prefix;
         Alcotest.test_case "op-count snapshot threshold" `Quick
           test_snapshot_threshold_triggers;
         Alcotest.test_case "portable ranks on every load path" `Quick
           test_portable_ranks ]) ]
