type t = {
  docs : (string, Node.t) Hashtbl.t;
  gens : (string, int) Hashtbl.t;
      (* per-URI generation stamps; persist across unregister so a
         re-registered URI never reuses an old stamp *)
  syns : (string, int * Synopsis.t) Hashtbl.t;
      (* lazily built structural synopses, keyed by the doc generation
         they describe — a stale stamp is an automatic invalidation *)
  lock : Mutex.t;
  mutable generation : int;
  mutable trackers : (string -> unit) list;
      (* footprint callbacks, notified on every successful [find] *)
}

let create () : t =
  { docs = Hashtbl.create 8; gens = Hashtbl.create 8;
    syns = Hashtbl.create 8;
    lock = Mutex.create (); generation = 0; trackers = [] }

let default : t = create ()

let with_lock registry f =
  Mutex.lock registry.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry.lock) f

(* Callers hold the lock. *)
let bump_doc registry uri =
  Hashtbl.replace registry.gens uri
    (1 + Option.value ~default:0 (Hashtbl.find_opt registry.gens uri))

let register ?(registry = default) uri doc =
  Node.set_uri doc uri;
  Node.ensure_contiguous doc;
  with_lock registry (fun () ->
      Hashtbl.replace registry.docs uri doc;
      bump_doc registry uri;
      registry.generation <- registry.generation + 1)

let patched ?(registry = default) uri delta =
  with_lock registry (fun () ->
      if Hashtbl.mem registry.docs uri then begin
        let gen = Option.value ~default:0 (Hashtbl.find_opt registry.gens uri) in
        bump_doc registry uri;
        registry.generation <- registry.generation + 1;
        (* a synopsis of the pre-edit tree follows the edit in place; if
           that fails, its stale stamp leaves it to a lazy rebuild *)
        match Hashtbl.find_opt registry.syns uri with
        | Some (g, syn) when g = gen -> (
          match Synopsis.patch syn delta with
          | () -> Hashtbl.replace registry.syns uri (gen + 1, syn)
          | exception _ -> ())
        | _ -> ()
      end)

let unregister ?(registry = default) uri =
  with_lock registry (fun () ->
      if Hashtbl.mem registry.docs uri then begin
        Hashtbl.remove registry.docs uri;
        Hashtbl.remove registry.syns uri;
        bump_doc registry uri;
        registry.generation <- registry.generation + 1
      end)

let notify registry uri =
  match with_lock registry (fun () -> registry.trackers) with
  | [] -> ()
  | cbs -> List.iter (fun cb -> cb uri) cbs

(* Fires only on the filesystem fallback — registered documents are in
   memory and have no read to fail. *)
let chaos_read_point () =
  match Fixq_chaos.check "store.read" with
  | None -> false
  | Some (Fixq_chaos.Delay s) ->
    Fixq_chaos.sleep s;
    false
  | Some Fixq_chaos.Oom -> raise Out_of_memory
  | Some Fixq_chaos.Kill -> Fixq_chaos.kill_self ()
  | Some (Fixq_chaos.Drop | Fixq_chaos.Truncate) -> true

let find ?(registry = default) uri =
  match with_lock registry (fun () -> Hashtbl.find_opt registry.docs uri) with
  | Some d ->
    notify registry uri;
    Some d
  | None ->
    if (not (chaos_read_point ())) && Sys.file_exists uri then begin
      match
        let ic = open_in_bin uri in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let len = in_channel_length ic in
            really_input_string ic len)
      with
      | exception (Sys_error _ | End_of_file) ->
        (* unreadable or truncated mid-read: same as not present *)
        None
      | s -> (
        match Xml_parser.parse_string ~uri s with
        | doc ->
          Node.ensure_contiguous doc;
          let found =
            with_lock registry (fun () ->
                match Hashtbl.find_opt registry.docs uri with
                | Some d -> Some d  (* lost a race; keep doc stability *)
                | None ->
                  Hashtbl.replace registry.docs uri doc;
                  bump_doc registry uri;
                  registry.generation <- registry.generation + 1;
                  Some doc)
          in
          notify registry uri;
          found
        | exception Xml_parser.Parse_error _ -> None)
    end
    else None

let generation ?(registry = default) () =
  with_lock registry (fun () -> registry.generation)

let doc_generation ?(registry = default) uri =
  with_lock registry (fun () ->
      Option.value ~default:0 (Hashtbl.find_opt registry.gens uri))

let uris ?(registry = default) () =
  with_lock registry (fun () ->
      Hashtbl.fold (fun uri _ acc -> uri :: acc) registry.docs []
      |> List.sort String.compare)

let clear ?(registry = default) () =
  with_lock registry (fun () ->
      Hashtbl.iter (fun uri _ -> bump_doc registry uri) registry.docs;
      Hashtbl.reset registry.docs;
      Hashtbl.reset registry.syns;
      registry.generation <- registry.generation + 1)

let generations ?(registry = default) () =
  with_lock registry (fun () ->
      Hashtbl.fold (fun uri g acc -> (uri, g) :: acc) registry.gens []
      |> List.sort compare)

let restore ?(registry = default) ~gens ~generation () =
  with_lock registry (fun () ->
      List.iter (fun (uri, g) -> Hashtbl.replace registry.gens uri g) gens;
      if generation > registry.generation then
        registry.generation <- generation)

let synopsis ?(registry = default) uri =
  match find ~registry uri with
  | None -> None
  | Some root -> (
    let gen = doc_generation ~registry uri in
    match with_lock registry (fun () -> Hashtbl.find_opt registry.syns uri) with
    | Some (g, syn) when g = gen -> Some syn
    | _ ->
      let syn = Synopsis.build root in
      with_lock registry (fun () ->
          Hashtbl.replace registry.syns uri (gen, syn));
      Some syn)

let track ?(registry = default) f =
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let seen_lock = Mutex.create () in
  let cb uri =
    Mutex.lock seen_lock;
    Hashtbl.replace seen uri ();
    Mutex.unlock seen_lock
  in
  with_lock registry (fun () ->
      registry.trackers <- cb :: registry.trackers);
  let detach () =
    with_lock registry (fun () ->
        registry.trackers <- List.filter (fun c -> c != cb) registry.trackers)
  in
  match f () with
  | v ->
    detach ();
    let fp =
      Hashtbl.fold (fun uri () acc -> uri :: acc) seen []
      |> List.sort String.compare
      |> List.map (fun uri -> (uri, doc_generation ~registry uri))
    in
    (v, fp)
  | exception e ->
    detach ();
    raise e
