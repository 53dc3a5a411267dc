(* Differential maintenance of cached fixpoints (lib/ivm) and its
   substrate: the patch-doc primitive on Node/Patch, per-document
   generation stamps, footprint-keyed result caching, the
   Analyze.ivm_eligibility verdict, and — the load-bearing property —
   maintained results byte-identical to full recompute across
   randomized edit sequences, driven through Server.handle_line exactly
   as the wire transports would. *)

module Xdm = Fixq_xdm
module Node = Xdm.Node
module Patch = Xdm.Patch
module Doc_registry = Xdm.Doc_registry
module Serializer = Xdm.Serializer
module Analyze = Fixq_analysis.Analyze
module Parser = Fixq_lang.Parser
module Service = Fixq_service
module Json = Service.Json
module Server = Service.Server

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let doc_of xml = Xdm.Xml_parser.parse_string ~uri:"u.xml" xml

let ser n = Serializer.to_string n

(* serialize the single document element of a patched root *)
let root_elem n =
  match Array.to_list n.Node.children with
  | [ e ] -> e
  | _ -> Alcotest.fail "expected exactly one root element"

(* ------------------------------------------------------------------ *)
(* Patch primitives                                                    *)
(* ------------------------------------------------------------------ *)

(* [Patch.apply] edits in place, so each op gets a fresh document. *)
let test_patch_insert () =
  let apply op =
    let d = doc_of "<r><a><k/></a><a/></r>" in
    (d, Patch.apply d op)
  in
  let d, last =
    apply (Patch.Insert { path = "/r"; position = Patch.Last; xml = "<z/>" })
  in
  checks "into-last" "<r><a><k/></a><a/><z/></r>" (ser (root_elem d));
  let d, _ =
    apply (Patch.Insert { path = "/r"; position = Patch.First; xml = "<z/>" })
  in
  checks "into-first" "<r><z/><a><k/></a><a/></r>" (ser (root_elem d));
  let d, _ =
    apply
      (Patch.Insert { path = "/r/a[2]"; position = Patch.Before; xml = "<z/>" })
  in
  checks "before" "<r><a><k/></a><z/><a/></r>" (ser (root_elem d));
  let d, _ =
    apply
      (Patch.Insert { path = "/r/a[1]"; position = Patch.After; xml = "<z/>" })
  in
  checks "after" "<r><a><k/></a><z/><a/></r>" (ser (root_elem d));
  checki "one inserted element" 1 last.Patch.inserted_count;
  checkb "nothing deleted" true (last.Patch.deleted = [])

let test_patch_delete_replace_settext () =
  let fresh () = doc_of "<r><a><k/></a><b>old</b></r>" in
  let d = fresh () in
  let del = Patch.apply d (Patch.Delete { path = "/r/a" }) in
  checks "delete" "<r><b>old</b></r>" (ser (root_elem d));
  checkb "deleted ids recorded" true (List.length del.Patch.deleted >= 2);
  let d = fresh () in
  ignore (Patch.apply d (Patch.Replace { path = "/r/b"; xml = "<b>new</b>" }));
  checks "replace" "<r><a><k/></a><b>new</b></r>" (ser (root_elem d));
  let d = fresh () in
  ignore (Patch.apply d (Patch.Set_text { path = "/r/b"; text = "t2" }));
  checks "set-text" "<r><a><k/></a><b>t2</b></r>" (ser (root_elem d))

(* ids after a patch must be a valid preorder: strictly increasing
   across a document-order walk (element, attributes, children) *)
let test_patch_preorder () =
  let d = doc_of "<r><a x=\"1\"><k/></a><b/></r>" in
  let r = root_elem d in
  let a = r.Node.children.(0) and b = r.Node.children.(1) in
  let k = a.Node.children.(0) in
  ignore
    (Patch.apply d
       (Patch.Insert
          { path = "/r/a"; position = Patch.Last; xml = "<w y=\"2\"><v/></w>" }));
  let del = Patch.apply d (Patch.Delete { path = "/r/a/k" }) in
  let last = ref (-1) in
  let rec walk n =
    checkb "preorder id" true (n.Node.id > !last);
    last := n.Node.id;
    Array.iter walk n.Node.attributes;
    Array.iter walk n.Node.children
  in
  walk d;
  checki "contiguous ids" (d.Node.id + 7) !last;
  (* survivors are physically the same nodes *)
  let r' = root_elem d in
  checkb "root element kept" true (r == r');
  checkb "a kept" true (r'.Node.children.(0) == a);
  checkb "b kept" true (r'.Node.children.(1) == b);
  (* the deleted subtree is detached and keeps its old id *)
  checkb "k detached" true (k.Node.parent = None);
  checkb "k reported removed" true (del.Patch.removed = [ k ]);
  checkb "k's id reported deleted" true (List.mem k.Node.id del.Patch.deleted);
  checkb "edit parent is a" true (del.Patch.edit_parent == a)

let test_patch_errors () =
  let d = doc_of "<r><a/></r>" in
  let before = ser d in
  let fails op =
    match Patch.apply d op with
    | _ -> Alcotest.fail "expected Patch_error"
    | exception Patch.Patch_error _ -> ()
  in
  fails (Patch.Delete { path = "/r/zz" });
  fails (Patch.Delete { path = "/r" });
  fails (Patch.Insert { path = "/r"; position = Patch.Before; xml = "<z/>" });
  fails (Patch.Replace { path = "/r/a[3]"; xml = "<z/>" });
  fails (Patch.Insert { path = "/r/a"; position = Patch.Last; xml = "<open" });
  checks "refused patches leave the tree" before (ser d);
  (* the same refusals through the server: the document bytes, its
     generation and the maintained IVM entries all stay as they were *)
  let server = Server.create () in
  let send line = fst (Server.handle_line server line) in
  let member name resp = Json.member name (Json.parse resp) in
  ignore (send (Json.to_string (Json.Obj [ ("op", Json.Str "load-doc");
      ("uri", Json.Str "u.xml"); ("xml", Json.Str "<r><a><k/></a><a/></r>") ])));
  ignore
    (send
       (Json.to_string
          (Json.Obj
             [ ("op", Json.Str "run");
               ("query", Json.Str {|with $x seeded by doc("u.xml")/r recurse $x/*|}) ])));
  let state () =
    let dump = send {|{"op":"dump-doc","uri":"u.xml"}|} in
    let stats = member "stats" (send {|{"op":"stats"}|}) in
    ( Json.str_opt (member "xml" dump),
      Json.int_opt (member "doc_generation" dump),
      Json.int_opt (Json.member "entries" (Json.member "ivm" stats)) )
  in
  let s0 = state () in
  let (_, _, entries) = s0 in
  checkb "one maintained entry" true (entries = Some 1);
  List.iter
    (fun (label, fields) ->
      let resp =
        send
          (Json.to_string
             (Json.Obj
                ([ ("op", Json.Str "patch-doc"); ("uri", Json.Str "u.xml") ]
                @ fields)))
      in
      checkb (label ^ " refused") true
        (Json.bool_opt (member "ok" resp) = Some false);
      checkb (label ^ " leaves the state") true (state () = s0))
    [ ("bad path",
       [ ("action", Json.Str "delete"); ("path", Json.Str "/r/zz") ]);
      ("bad XML",
       [ ("action", Json.Str "insert"); ("path", Json.Str "/r/a");
         ("xml", Json.Str "<open") ]);
      ("root delete", [ ("action", Json.Str "delete"); ("path", Json.Str "/r") ]);
      ("root sibling",
       [ ("action", Json.Str "insert"); ("path", Json.Str "/r");
         ("position", Json.Str "after"); ("xml", Json.Str "<z/>") ]) ]

(* ------------------------------------------------------------------ *)
(* Per-document generations                                            *)
(* ------------------------------------------------------------------ *)

let test_doc_generations () =
  let registry = Doc_registry.create () in
  Doc_registry.register ~registry "a.xml" (doc_of "<a/>");
  Doc_registry.register ~registry "b.xml" (doc_of "<b/>");
  checki "a gen" 1 (Doc_registry.doc_generation ~registry "a.xml");
  checki "b gen" 1 (Doc_registry.doc_generation ~registry "b.xml");
  Doc_registry.register ~registry "a.xml" (doc_of "<a2/>");
  checki "a bumped" 2 (Doc_registry.doc_generation ~registry "a.xml");
  checki "b untouched" 1 (Doc_registry.doc_generation ~registry "b.xml");
  let ((), footprint) =
    Doc_registry.track ~registry (fun () ->
        ignore (Doc_registry.find ~registry "a.xml"))
  in
  checkb "tracked footprint" true (footprint = [ ("a.xml", 2) ])

(* ------------------------------------------------------------------ *)
(* Eligibility verdicts                                                *)
(* ------------------------------------------------------------------ *)

let eligibility q =
  Analyze.ivm_eligibility ~stratified:false (Parser.parse_program q)

let test_eligibility () =
  checks "full" "full"
    (Analyze.ivm_string
       (eligibility
          {|with $x seeded by doc("u.xml")/r recurse $x/*|}));
  checks "descendant full" "full"
    (Analyze.ivm_string
       (eligibility
          {|with $x seeded by doc("u.xml")/r recurse $x/descendant-or-self::*/k|}));
  checks "filter is insert-only" "insert-only"
    (Analyze.ivm_string
       (eligibility
          {|with $x seeded by doc("u.xml")/r recurse $x/*[k]|}));
  checks "id() ineligible" "ineligible"
    (Analyze.ivm_string
       (eligibility
          {|with $x seeded by doc("u.xml")/r recurse $x/id("c")|}));
  checks "no ifp ineligible" "ineligible"
    (Analyze.ivm_string (eligibility "1 + 1"));
  checks "wrapped main ineligible" "ineligible"
    (Analyze.ivm_string
       (eligibility
          {|count(with $x seeded by doc("u.xml")/r recurse $x/*)|}))

(* ------------------------------------------------------------------ *)
(* Server plumbing                                                     *)
(* ------------------------------------------------------------------ *)

let send server line = fst (Server.handle_line server line)

let member name resp = Json.member name (Json.parse resp)
let member_str name resp = Option.value ~default:"" (Json.str_opt (member name resp))
let member_int name resp = Option.value ~default:(-1) (Json.int_opt (member name resp))

let load_line uri xml =
  Json.to_string
    (Json.Obj
       [ ("op", Json.Str "load-doc"); ("uri", Json.Str uri);
         ("xml", Json.Str xml) ])

let run_line ?(cache = true) q =
  Json.to_string
    (Json.Obj
       (("op", Json.Str "run") :: ("query", Json.Str q)
       :: (if cache then [] else [ ("cache", Json.Bool false) ])))

(* satellite regression: a cached result must survive a load of a
   document it never read — only its own footprint invalidates it *)
let test_footprint_survives_unrelated_load () =
  let server = Server.create () in
  ignore (send server (load_line "u.xml" "<r><a/><a/></r>"));
  let q = {|with $x seeded by doc("u.xml")/r recurse $x/*|} in
  checks "first run misses" "miss" (member_str "result_cache" (send server (run_line q)));
  ignore (send server (load_line "other.xml" "<zzz/>"));
  checks "unrelated load keeps the hit" "hit"
    (member_str "result_cache" (send server (run_line q)));
  ignore (send server (load_line "u.xml" "<r><a/><a/><a/></r>"));
  checks "reloading the read doc invalidates" "miss"
    (member_str "result_cache" (send server (run_line q)))

let patch_line ?(uri = "u.xml") ?position ~action ~path payload =
  Json.to_string
    (Json.Obj
       ([ ("op", Json.Str "patch-doc"); ("uri", Json.Str uri);
          ("action", Json.Str action); ("path", Json.Str path) ]
       @ (match position with
         | Some p -> [ ("position", Json.Str p) ]
         | None -> [])
       @ payload))

let test_server_patch_maintains () =
  let server = Server.create () in
  ignore (send server (load_line "u.xml" "<r><a><k/></a><a/></r>"));
  let q = {|with $x seeded by doc("u.xml")/r recurse $x/*|} in
  ignore (send server (run_line q));
  let presp =
    send server
      (patch_line ~action:"insert" ~path:"/r"
         [ ("xml", Json.Str "<a><k/></a>") ])
  in
  checkb "patch ok" true (Json.bool_opt (member "ok" presp) = Some true);
  checki "one entry maintained" 1 (member_int "maintained" presp);
  checki "none recomputed" 0 (member_int "recompute" presp);
  let hit = send server (run_line q) in
  checks "maintained entry hits" "hit" (member_str "result_cache" hit);
  let fresh = send server (run_line ~cache:false q) in
  checks "maintained bytes = recompute bytes" (member_str "result" fresh)
    (member_str "result" hit)

(* A predicate that reads the document outside the recursion variable
   holds or fails for old nodes that no frontier re-feeds: inserting
   <t/> flips it for <q/>, which was fed before the edit. Such an entry
   is recomputed, never maintained, and its next hit answers as
   cache:false does. *)
let run_outside_read_case q () =
  let server = Server.create () in
  ignore (send server (load_line "u.xml" "<r><p><q/></p><s/></r>"));
  checks "no <t/>, no result" "" (member_str "result" (send server (run_line q)));
  let presp =
    send server (patch_line ~action:"insert" ~path:"/r" [ ("xml", Json.Str "<t/>") ])
  in
  checki "not maintained" 0 (member_int "maintained" presp);
  checki "recomputed" 1 (member_int "recompute" presp);
  let fresh = member_str "result" (send server (run_line ~cache:false q)) in
  checks "cache:false sees <t/>" "<q/>" fresh;
  checks "cached run = cache:false" fresh (member_str "result" (send server (run_line q)))

let test_doc_read_in_predicate =
  run_outside_read_case
    {|with $x seeded by doc("u.xml")/r/p recurse $x/*[doc("u.xml")/r/t]|}

let test_global_read_in_predicate =
  run_outside_read_case
    {|declare variable $g := doc("u.xml")/r/t;
with $x seeded by doc("u.xml")/r/p recurse $x/*[$g]|}

(* Query hashes a patch response reports as maintained. *)
let maintained_hashes presp =
  match member "entries" presp with
  | Json.List rows ->
    List.filter_map
      (fun row ->
        match Json.str_opt (Json.member "outcome" row) with
        | Some "maintained" -> Json.str_opt (Json.member "hash" row)
        | _ -> None)
      rows
  | _ -> []

(* Maintenance follows the result cache's LRU: with room for two
   entries, running Q1, Q2, Q1, Q3 keeps Q1 and Q3, so a patch must
   maintain exactly those and not the evicted Q2, and the hot Q1 must
   still hit afterwards. *)
let test_maintenance_follows_lru () =
  let server =
    Server.create ~config:{ Server.default_config with result_capacity = 2 } ()
  in
  ignore (send server (load_line "t.xml" "<r><a><b/><b/></a><a><b/></a></r>"));
  let q1 = {|with $x seeded by doc("t.xml")/r recurse $x/*|} in
  let q2 = {|with $x seeded by doc("t.xml")/r/a recurse $x/*|} in
  let q3 = {|with $x seeded by doc("t.xml")/r recurse $x/b|} in
  List.iter (fun q -> ignore (send server (run_line q))) [ q1; q2; q1; q3 ];
  let presp =
    send server
      (patch_line ~uri:"t.xml" ~action:"insert" ~path:"/r/a[1]"
         [ ("xml", Json.Str "<b/>") ])
  in
  Alcotest.(check (list string))
    "the patch maintains Q1 and Q3"
    (List.sort compare (List.map Service.Prepared.hash_source [ q1; q3 ]))
    (List.sort compare (maintained_hashes presp));
  let hit = send server (run_line q1) in
  checks "Q1 hits after the patch" "hit" (member_str "result_cache" hit);
  checks "with the recomputed bytes"
    (member_str "result" (send server (run_line ~cache:false q1)))
    (member_str "result" hit)

let test_server_patch_drops_ineligible () =
  let server = Server.create () in
  ignore (send server (load_line "u.xml" "<r><a><k/></a><a/></r>"));
  (* insert-only query: a delete edit must fall back to recompute *)
  let q = {|with $x seeded by doc("u.xml")/r recurse $x/*[k]|} in
  ignore (send server (run_line q));
  let presp =
    send server (patch_line ~action:"delete" ~path:"/r/a[2]" [])
  in
  checki "entry dropped" 1 (member_int "recompute" presp);
  checki "nothing maintained" 0 (member_int "maintained" presp);
  checks "next run recomputes" "miss"
    (member_str "result_cache" (send server (run_line q)));
  let stats = send server {|{"op":"stats"}|} in
  let ivm = Json.member "ivm" (member "stats" stats) in
  checkb "fallback counted" true
    (Json.int_opt (Json.member "fallback_recompute_total" ivm) = Some 1)

let test_server_patch_errors () =
  let server = Server.create () in
  ignore (send server (load_line "u.xml" "<r><a/></r>"));
  let bad = send server (patch_line ~action:"delete" ~path:"/r/zz" []) in
  checkb "bad path is an error" true
    (Json.bool_opt (member "ok" bad) = Some false);
  let missing =
    send server (patch_line ~uri:"nope.xml" ~action:"delete" ~path:"/r/a" [])
  in
  checkb "unknown uri is an error" true
    (Json.bool_opt (member "ok" missing) = Some false)

(* Patches edit trees in place, so the server runs them alone. Readers
   streaming cache:false closures while a writer applies balanced edit
   triples must each see one whole tree, never a half-spliced one, and
   the writer must get through. *)
let test_readers_writer () =
  let server = Server.create () in
  ignore
    (send server
       {|{"op":"load-doc","uri":"auction.xml","generate":"xmark","size":0.002,"seed":42}|});
  let auction = "/site/open_auctions/open_auction[1]" in
  let q =
    Printf.sprintf
      {|with $x seeded by doc("auction.xml")%s recurse $x/*|}
      "/site/open_auctions"
  in
  let answer () = member_str "result" (send server (run_line ~cache:false q)) in
  let bidders =
    int_of_string
      (member_str "result"
         (send server
            (run_line
               (Printf.sprintf {|count(doc("auction.xml")%s/bidder)|} auction))))
  in
  (* each edit yields, so readers run between the edits of a triple *)
  let edit line =
    let resp = send server line in
    if Json.bool_opt (member "ok" resp) <> Some true then
      Alcotest.failf "edit failed: %s" resp;
    Thread.yield ()
  in
  let insert =
    patch_line ~uri:"auction.xml" ~action:"insert" ~path:auction
      [ ("xml", Json.Str "<bidder><increase>1.00</increase></bidder>") ]
  in
  let delete =
    patch_line ~uri:"auction.xml" ~action:"delete"
      ~path:(Printf.sprintf "%s/bidder[%d]" auction (bidders + 1))
      []
  in
  let rename k =
    patch_line ~uri:"auction.xml" ~action:"set-text"
      ~path:"/site/people/person[1]/name"
      [ ("text", Json.Str (Printf.sprintf "Renamed %d" k)) ]
  in
  let pre = answer () in
  edit insert;
  let post = answer () in
  edit delete;
  checkb "the insert changes the answer" true (pre <> post);
  let writing = Atomic.make true in
  let reads = Atomic.make 0 in
  let bad = ref [] and bad_lock = Mutex.create () in
  let reader () =
    while Atomic.get writing do
      let a = answer () in
      Atomic.incr reads;
      if a <> pre && a <> post then begin
        Mutex.lock bad_lock;
        bad := a :: !bad;
        Mutex.unlock bad_lock
      end
    done
  in
  let readers = List.init 2 (fun _ -> Thread.create reader ()) in
  let writer =
    Thread.create
      (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set writing false)
          (fun () ->
            while Atomic.get reads < 2 do
              Thread.yield ()
            done;
            for k = 1 to 100 do
              edit insert;
              edit (rename k);
              edit delete
            done))
      ()
  in
  Thread.join writer;
  List.iter Thread.join readers;
  checkb "readers ran beside the writer" true (Atomic.get reads > 2);
  checki "every answer is a whole tree's" 0 (List.length !bad);
  checks "balanced edits restore the answer" pre (answer ())

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* Value probes race on a document whose value tables are not yet
   built and are dropped by every edit: each bidder-network answer must
   be one a single-threaded server gives at some state of the edit
   cycle. *)
let test_probes_beside_a_writer () =
  let load =
    {|{"op":"load-doc","uri":"auction.xml","generate":"xmark","size":0.002,"seed":42}|}
  in
  let auction = "/site/open_auctions/open_auction[1]" in
  let seller =
    Printf.sprintf {|string(doc("auction.xml")%s/seller/@person)|} auction
  in
  let answer server seed =
    member_str "result"
      (send server (run_line ~cache:false (Fixq_workloads.Queries.bidder_network_single seed)))
  in
  let edit server line =
    let resp = send server line in
    if Json.bool_opt (member "ok" resp) <> Some true then
      Alcotest.failf "edit failed: %s" resp
  in
  (* the states, single-threaded, on a server of their own *)
  let reference = Server.create () in
  ignore (send reference load);
  let seed = member_str "result" (send reference (run_line seller)) in
  let persons =
    int_of_string
      (member_str "result"
         (send reference (run_line {|count(doc("auction.xml")/site/people/person)|})))
  in
  let bidders =
    int_of_string
      (member_str "result"
         (send reference
            (run_line (Printf.sprintf {|count(doc("auction.xml")%s/bidder)|} auction))))
  in
  let insert =
    patch_line ~uri:"auction.xml" ~action:"insert" ~path:auction
      [ ( "xml",
          Json.Str
            (Printf.sprintf {|<bidder><personref person="person%d"/></bidder>|}
               (persons - 1)) ) ]
  in
  let delete =
    patch_line ~uri:"auction.xml" ~action:"delete"
      ~path:(Printf.sprintf "%s/bidder[%d]" auction (bidders + 1))
      []
  in
  let pre = answer reference seed in
  edit reference insert;
  let post = answer reference seed in
  edit reference delete;
  checkb "the insert changes the answer" true (pre <> post);
  (* a rename outside both answers leaves them as they are *)
  let outside =
    let rec find k =
      let id = Printf.sprintf {|id="person%d"|} k in
      if contains pre id || contains post id then find (k + 1) else k
    in
    find 0
  in
  let rename k =
    patch_line ~uri:"auction.xml" ~action:"set-text"
      ~path:(Printf.sprintf "/site/people/person[%d]/name" (outside + 1))
      [ ("text", Json.Str (Printf.sprintf "Renamed %d" k)) ]
  in
  let server = Server.create () in
  ignore (send server load);
  let writing = Atomic.make true in
  let reads = Atomic.make 0 in
  let bad = ref [] and bad_lock = Mutex.create () in
  let reader () =
    while Atomic.get writing do
      let a = answer server seed in
      Atomic.incr reads;
      if a <> pre && a <> post then begin
        Mutex.lock bad_lock;
        bad := a :: !bad;
        Mutex.unlock bad_lock
      end
    done
  in
  let readers = List.init 2 (fun _ -> Thread.create reader ()) in
  let writer =
    Thread.create
      (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set writing false)
          (fun () ->
            for k = 1 to 100 do
              List.iter
                (fun line ->
                  edit server line;
                  Thread.yield ())
                [ insert; rename k; delete ]
            done;
            while Atomic.get reads < 4 do
              Thread.yield ()
            done))
      ()
  in
  Thread.join writer;
  List.iter Thread.join readers;
  checki "every answer is a single-threaded one" 0 (List.length !bad);
  checks "balanced edits restore the answer" pre (answer server seed)

(* ------------------------------------------------------------------ *)
(* Property: maintained ≡ recompute over randomized edit sequences     *)
(* ------------------------------------------------------------------ *)

let state_dirs = ref 0

let fresh_state_dir () =
  incr state_dirs;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fixq-ivm-%d-%d" (Unix.getpid ()) !state_dirs)
  in
  if not (Sys.file_exists d) then Unix.mkdir d 0o755;
  d

(* Drive a server through a deterministic random edit sequence and
   assert, after every edit and for every query class (full-eligible,
   insert-only, ineligible), that the default (cached, maintained)
   result is byte-identical to a cache-bypassing recompute, and that
   every edit maintains the full-eligible entry. With [durable], the
   server runs from a state dir, and before seeded random edits it
   takes a snapshot and is re-created from that dir, as after a crash:
   the recovered entries must go on being maintained, with the same
   bytes. Replaces and deletes renumber the edited tree between
   snapshots, so a snapshot must read each result's ranks live. *)
let run_edit_property ?(durable = false) ~seed ~steps () =
  let rng = Random.State.make [| seed |] in
  let restarts = Random.State.make [| seed; 1 |] in
  let config =
    if durable then
      { Server.default_config with state_dir = Some (fresh_state_dir ()) }
    else Server.default_config
  in
  let server = ref (Server.create ~config ()) in
  let send line = send !server line in
  ignore (send (load_line "u.xml" "<r><a><k/></a><a><k/><k/></a></r>"));
  let queries =
    [ ("full", {|with $x seeded by doc("u.xml")/r recurse $x/*|});
      ("insert-only", {|with $x seeded by doc("u.xml")/r recurse $x/*[k]|});
      ("ineligible", {|with $x seeded by doc("u.xml")/r recurse $x/id("c")|}) ]
  in
  List.iter (fun (_, q) -> ignore (send (run_line q))) queries;
  let full_hash = Service.Prepared.hash_source (List.assoc "full" queries) in
  let c_count = ref 0 in
  for step = 1 to steps do
    if durable && Random.State.int restarts 3 = 0 then begin
      ignore (send {|{"op":"snapshot"}|});
      server := Server.create ~config ()
    end;
    let edit =
      match Random.State.int rng 5 with
      | 0 | 4 ->
        incr c_count;
        patch_line ~action:"insert" ~path:"/r"
          [ ("xml", Json.Str (Printf.sprintf "<c n=\"%d\"><k/></c>" step)) ]
      | 1 when !c_count > 0 ->
        decr c_count;
        patch_line ~action:"delete" ~path:"/r/c[1]" []
      | 1 ->
        incr c_count;
        patch_line ~position:"into-first" ~action:"insert" ~path:"/r"
          [ ("xml", Json.Str "<c/>") ]
      | 2 ->
        patch_line ~action:"replace" ~path:"/r/a[1]"
          [ ("xml", Json.Str (Printf.sprintf "<a><k/><m n=\"%d\"/></a>" step)) ]
      | _ -> patch_line ~action:"set-text" ~path:"/r/a[2]" [ ("text", Json.Str "t") ]
    in
    let presp = send edit in
    if Json.bool_opt (member "ok" presp) <> Some true then
      Alcotest.failf "step %d: patch failed: %s" step presp;
    if not (List.mem full_hash (maintained_hashes presp)) then
      Alcotest.failf "step %d: full query not maintained: %s" step presp;
    List.iter
      (fun (label, q) ->
        let cached = send (run_line q) in
        let fresh = send (run_line ~cache:false q) in
        let c = member_str "result" cached and f = member_str "result" fresh in
        if c <> f then
          Alcotest.failf "step %d: %s diverged:\n cached: %s\n  fresh: %s" step
            label c f)
      queries
  done;
  (* the stats counters agree; they start over with each server, so
     only a run without restarts has counted every edit *)
  if not durable then begin
    let stats = send {|{"op":"stats"}|} in
    let ivm = Json.member "ivm" (member "stats" stats) in
    checkb "maintenance engaged" true
      (match Json.int_opt (Json.member "maintained_total" ivm) with
      | Some n -> n >= steps
      | None -> false)
  end

let test_property_edits_seed7 () = run_edit_property ~seed:7 ~steps:25 ()
let test_property_edits_seed42 () = run_edit_property ~seed:42 ~steps:25 ()

let test_property_restarts () =
  List.iter
    (fun seed -> run_edit_property ~durable:true ~seed ~steps:25 ())
    [ 7; 42; 1001 ]

(* ------------------------------------------------------------------ *)
(* Property: untouched ≡ recompute over edits on sibling branches      *)
(* ------------------------------------------------------------------ *)

(* Each entry's outcome in a patch response, by query hash. *)
let outcomes presp =
  match member "entries" presp with
  | Json.List rows ->
    List.filter_map
      (fun row ->
        match (Json.str_opt (Json.member "hash" row), Json.str_opt (Json.member "outcome" row)) with
        | (Some h, Some o) -> Some (h, o)
        | _ -> None)
      rows
  | _ -> []

(* Closures seeded inside one of three sibling branches, under random
   inserts, deletes, replaces and text edits anywhere in the document:
   each cached answer, untouched or maintained, must equal a recompute
   after every edit, and some entry must come back untouched. The
   controls read the document past their variable or select their seed
   by more than names, so they never may. One control's predicate flips
   when an edit inserts <u>: maintaining it from the frontier would
   keep its old, empty answer. With [durable], the server
   snapshots at random points, untouched entries included, and is
   re-created from its state dir. *)
let run_untouched_property ?(durable = false) ~seed ~steps () =
  let rng = Random.State.make [| seed |] in
  let restarts = Random.State.make [| seed; 1 |] in
  let config =
    if durable then
      { Server.default_config with state_dir = Some (fresh_state_dir ()) }
    else Server.default_config
  in
  let server = ref (Server.create ~config ()) in
  let send line = send !server line in
  ignore
    (send
       (load_line "u.xml"
          {|<r><p><q n="1"><k/></q><q n="2"/></p><s><q n="1"/><q n="3"><k/></q></s><t><q/><m/></t></r>|}));
  let closures =
    [ {|with $x seeded by doc("u.xml")/r/p recurse $x/*|};
      {|with $x seeded by doc("u.xml")/r/s/q recurse $x/*|};
      {|with $x seeded by doc("u.xml")/r/s/q[@n = "1"] recurse $x/*|};
      {|with $x seeded by doc("u.xml")/r/t recurse $x/*[k]|} ]
  in
  let controls =
    [ {|with $x seeded by doc("u.xml")/r/t recurse $x/*[doc("u.xml")/r/p]|};
      {|with $x seeded by doc("u.xml")/r/t recurse $x/*[doc("u.xml")/r/u]|};
      {|with $x seeded by doc("u.xml")/r/s/* recurse $x/*|};
      {|declare variable $d := doc("u.xml"); with $x seeded by $d/r/s recurse $x/*|} ]
  in
  let queries = closures @ controls in
  let control_hashes = List.map Service.Prepared.hash_source controls in
  List.iter (fun q -> ignore (send (run_line q))) queries;
  let untouched = ref 0 in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  for step = 1 to steps do
    if durable && Random.State.int restarts 3 = 0 then begin
      ignore (send {|{"op":"snapshot"}|});
      server := Server.create ~config ()
    end;
    let branch = pick [| "p"; "s"; "t" |] in
    let at = Printf.sprintf "/r/%s/%s[1]" branch (pick [| "q"; "k"; "m" |]) in
    let fragment =
      pick
        [| Printf.sprintf {|<q n="%d"><k/></q>|} (1 + Random.State.int rng 3);
           "<k/>"; "<m><k/></m>"; "<m/>" |]
    in
    let edit =
      match Random.State.int rng 6 with
      | 0 ->
        patch_line ~action:"insert" ~path:("/r/" ^ branch) [ ("xml", Json.Str fragment) ]
      | 1 -> patch_line ~action:"insert" ~path:"/r" [ ("xml", Json.Str "<u><m/></u>") ]
      | 2 -> patch_line ~action:"insert" ~path:at [ ("xml", Json.Str fragment) ]
      | 3 -> patch_line ~action:"delete" ~path:at []
      | 4 -> patch_line ~action:"replace" ~path:at [ ("xml", Json.Str fragment) ]
      | _ ->
        patch_line ~action:"set-text" ~path:at
          [ ("text", Json.Str (Printf.sprintf "t%d" step)) ]
    in
    let presp = send edit in
    if Json.bool_opt (member "ok" presp) = Some true then begin
      List.iter
        (fun (h, o) ->
          if o = "untouched" then begin
            incr untouched;
            if List.mem h control_hashes then
              Alcotest.failf "step %d: a control came back untouched: %s" step presp
          end)
        (outcomes presp);
      List.iter
        (fun q ->
          let c = member_str "result" (send (run_line q)) in
          let f = member_str "result" (send (run_line ~cache:false q)) in
          if c <> f then
            Alcotest.failf "step %d (%s): %s diverged:\n cached: %s\n  fresh: %s" step
              edit q c f)
        queries
    end
  done;
  if !untouched = 0 then Alcotest.fail "no entry came back untouched";
  if not durable then begin
    let ivm = Json.member "ivm" (member "stats" (send {|{"op":"stats"}|})) in
    checki "stats count every untouched entry" !untouched
      (Option.value ~default:(-1) (Json.int_opt (Json.member "untouched_total" ivm)))
  end

let test_untouched_property () =
  List.iter (fun seed -> run_untouched_property ~seed ~steps:40 ()) [ 3; 7; 42; 1001 ]

let test_untouched_restarts () =
  List.iter (fun seed -> run_untouched_property ~durable:true ~seed ~steps:30 ()) [ 7; 42 ]

let () =
  Alcotest.run "ivm"
    [ ("patch",
       [ Alcotest.test_case "insert positions" `Quick test_patch_insert;
         Alcotest.test_case "delete/replace/set-text" `Quick
           test_patch_delete_replace_settext;
         Alcotest.test_case "preorder + remap" `Quick test_patch_preorder;
         Alcotest.test_case "errors" `Quick test_patch_errors;
         Alcotest.test_case "readers and a writer" `Quick test_readers_writer;
         Alcotest.test_case "value probes beside a writer" `Quick
           test_probes_beside_a_writer ]);
      ("registry",
       [ Alcotest.test_case "per-doc generations" `Quick test_doc_generations ]);
      ("eligibility",
       [ Alcotest.test_case "classification" `Quick test_eligibility ]);
      ("server",
       [ Alcotest.test_case "footprint survives unrelated load" `Quick
           test_footprint_survives_unrelated_load;
         Alcotest.test_case "patch maintains cached entry" `Quick
           test_server_patch_maintains;
         Alcotest.test_case "maintenance follows the LRU" `Quick
           test_maintenance_follows_lru;
         Alcotest.test_case "delete drops insert-only entry" `Quick
           test_server_patch_drops_ineligible;
         Alcotest.test_case "doc() read in a predicate recomputes" `Quick
           test_doc_read_in_predicate;
         Alcotest.test_case "global read in a predicate recomputes" `Quick
           test_global_read_in_predicate;
         Alcotest.test_case "patch errors" `Quick test_server_patch_errors ]);
      ("property",
       [ Alcotest.test_case "random edits, seed 7" `Quick
           test_property_edits_seed7;
         Alcotest.test_case "random edits, seed 42" `Quick
           test_property_edits_seed42;
         Alcotest.test_case "random edits across restarts" `Quick
           test_property_restarts;
         Alcotest.test_case "untouched = recompute" `Quick test_untouched_property;
         Alcotest.test_case "untouched = recompute across restarts" `Quick
           test_untouched_restarts ]) ]
