module Xdm = Fixq_xdm
module W = Fixq_workloads

type t = { reg : Xdm.Doc_registry.t }

exception Error of string

let create ?(registry = Xdm.Doc_registry.create ()) () = { reg = registry }
let registry t = t.reg
let generation t = Xdm.Doc_registry.generation ~registry:t.reg ()

let load_xml t ~uri xml =
  match Xdm.Xml_parser.parse_string ~uri xml with
  | doc -> Xdm.Doc_registry.register ~registry:t.reg uri doc
  | exception Xdm.Xml_parser.Parse_error { line; col; msg } ->
    raise
      (Error
         (Printf.sprintf "cannot parse document %S at %d:%d: %s" uri line col
            msg))

let chaos_read_point path =
  match Fixq_chaos.check "store.read" with
  | None -> ()
  | Some (Fixq_chaos.Delay s) -> Fixq_chaos.sleep s
  | Some Fixq_chaos.Oom -> raise Out_of_memory
  | Some Fixq_chaos.Kill -> Fixq_chaos.kill_self ()
  | Some (Fixq_chaos.Drop | Fixq_chaos.Truncate) ->
    raise (Error (Printf.sprintf "chaos: injected read failure on %s" path))

let read_file path =
  chaos_read_point path;
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let n = in_channel_length ic in
        really_input_string ic n)
  with
  | Sys_error msg -> raise (Error ("cannot read " ^ msg))
  | End_of_file ->
    (* the file shrank between the length probe and the read *)
    raise
      (Error (Printf.sprintf "cannot read %s: file truncated mid-read" path))

let load_file t ~uri path = load_xml t ~uri (read_file path)

let load_generated t ~uri ~kind ~size ~seed =
  let doc =
    match kind with
    | "xmark" -> W.Xmark.generate { W.Xmark.default with scale = size; seed }
    | "curriculum" ->
      W.Curriculum.generate
        { W.Curriculum.default with courses = int_of_float size; seed }
    | "play" -> W.Shakespeare.generate { W.Shakespeare.default with seed }
    | "hospital" ->
      W.Hospital.generate
        { W.Hospital.default with total = int_of_float size; seed }
    | other ->
      raise
        (Error
           (Printf.sprintf
              "unknown generator %S (expected xmark|curriculum|play|hospital)"
              other))
  in
  Xdm.Doc_registry.register ~registry:t.reg uri doc

let unload t uri = Xdm.Doc_registry.unregister ~registry:t.reg uri
let uris t = Xdm.Doc_registry.uris ~registry:t.reg ()

let doc_generation t uri = Xdm.Doc_registry.doc_generation ~registry:t.reg uri
let synopsis t uri = Xdm.Doc_registry.synopsis ~registry:t.reg uri
let track t f = Xdm.Doc_registry.track ~registry:t.reg f

let chaos_patch_point uri =
  match Fixq_chaos.check "store.patch" with
  | None -> ()
  | Some (Fixq_chaos.Delay s) -> Fixq_chaos.sleep s
  | Some Fixq_chaos.Oom -> raise Out_of_memory
  | Some Fixq_chaos.Kill -> Fixq_chaos.kill_self ()
  | Some (Fixq_chaos.Drop | Fixq_chaos.Truncate) ->
    raise (Error (Printf.sprintf "chaos: injected patch failure on %s" uri))

(* The chaos point fires before any mutation, and [Patch.apply] refuses
   a bad edit before touching the tree: a killed worker or a failed
   patch leaves the registry exactly as it was, so a respawn that
   replays the document history (load + patches) converges to the same
   tree. *)
let patch t ~uri op =
  chaos_patch_point uri;
  match Xdm.Doc_registry.find ~registry:t.reg uri with
  | None -> raise (Error (Printf.sprintf "no document loaded under %S" uri))
  | Some root -> (
    match Xdm.Patch.apply root op with
    | delta ->
      Xdm.Doc_registry.patched ~registry:t.reg uri delta;
      delta
    | exception Xdm.Patch.Patch_error msg ->
      raise (Error (Printf.sprintf "cannot patch %S: %s" uri msg)))
