module Xdm = Fixq_xdm
module Lang = Fixq_lang
module Analyze = Fixq_analysis.Analyze
module Node = Xdm.Node
module Item = Xdm.Item
module Patch = Xdm.Patch
module Accumulator = Xdm.Accumulator

type entry = {
  hash : string;
  config : string;
  program : Lang.Ast.program;
  var : string;
  seed_expr : Lang.Ast.expr;
  body : Lang.Ast.expr;
  cls : Analyze.ivm_class;
  stratified : bool;
  max_iterations : int;
  mutable nodes : Node.t list;
  mutable seed_nodes : Node.t list;
  mutable uris : string list;
}

type outcome =
  | Maintained of { serialized : string; delta_count : int; rounds : int }
  | Dropped of string

type counter = {
  mutable maintained : int;
  mutable fallback : int;
  mutable delta_nodes : int;
}

type t = {
  registry : Xdm.Doc_registry.t;
  entries : (string * string, entry) Hashtbl.t;
  order : (string * string) Queue.t;  (* adoption order, for eviction *)
  counters : (string, counter) Hashtbl.t;
  capacity : int;
  lock : Mutex.t;
}

let create ?(capacity = 64) ~registry () =
  { registry; entries = Hashtbl.create 16; order = Queue.create ();
    counters = Hashtbl.create 16; capacity = max 1 capacity;
    lock = Mutex.create () }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let counter_for t hash =
  match Hashtbl.find_opt t.counters hash with
  | Some c -> c
  | None ->
    let c = { maintained = 0; fallback = 0; delta_nodes = 0 } in
    Hashtbl.add t.counters hash c;
    c

(* Callers hold the lock. *)
let evict_to_capacity t =
  while Hashtbl.length t.entries >= t.capacity && not (Queue.is_empty t.order)
  do
    let k = Queue.pop t.order in
    Hashtbl.remove t.entries k
  done

let size t = with_lock t (fun () -> Hashtbl.length t.entries)

let eligibility ?stratified p = Analyze.ivm_eligibility ?stratified p

let node_list items =
  List.filter_map (function Item.N n -> Some n | Item.A _ -> None) items

let all_nodes items =
  List.for_all (function Item.N _ -> true | Item.A _ -> false) items

let adopt t ~hash ~config ~program ~stratified ~max_iterations ~result
    ~footprint =
  match program.Lang.Ast.main with
  | Lang.Ast.Ifp { var; seed; body; accum = None } when all_nodes result -> (
    match Analyze.ivm_eligibility ~stratified program with
    | Analyze.Ivm_ineligible _ -> ()
    | cls ->
      (* The pre-edit seed is needed at maintenance time to tell fresh
         seed nodes from re-fed ones, and it cannot be recovered once
         the registry holds the patched tree — capture it now. *)
      let seed_nodes =
        match
          let ev =
            Lang.Eval.create ~registry:t.registry ~max_iterations ~stratified
              ()
          in
          Lang.Eval.load_prolog ev program;
          Item.as_node_seq "ivm seed" (Lang.Eval.eval_expr ev seed)
        with
        | ns -> Some ns
        | exception _ -> None
      in
      match seed_nodes with
      | None -> ()
      | Some seed_nodes ->
        let e =
          { hash; config; program; var; seed_expr = seed; body; cls;
            stratified; max_iterations; nodes = node_list result; seed_nodes;
            uris = List.map fst footprint }
        in
        with_lock t (fun () ->
            let k = (hash, config) in
            if not (Hashtbl.mem t.entries k) then begin
              evict_to_capacity t;
              Queue.push k t.order
            end;
            Hashtbl.replace t.entries k e))
  | _ -> ()

let drop_where t pred =
  with_lock t (fun () ->
      let doomed =
        Hashtbl.fold
          (fun k e acc -> if pred e then k :: acc else acc)
          t.entries []
      in
      List.iter (Hashtbl.remove t.entries) doomed;
      doomed)

let on_unload t ~uri =
  ignore (drop_where t (fun e -> List.mem uri e.uris))

exception Maintenance_failed of string

(* Differential re-evaluation (Alvarez-Picallo et al.: the derivative of
   a fixpoint is a fixpoint): re-enter the delta loop from the edit
   frontier instead of re-running the whole fixpoint.

   For eligible (downward) bodies the producers whose output a patch can
   change are exactly the ancestors of the edit point, so the frontier
   is [fresh seed nodes ∪ (ancestor spine ∩ previously-fed nodes)] —
   sub-linear in the document. The cached result survives the patch
   because the edit is in place: its nodes keep their identity, and only
   those in the deleted subtrees are dropped (which, for filter-free
   downward bodies, removes exactly the derivations the deleted subtree
   supported). New derivations are absorbed into a rebuilt accumulator
   by the standard [∆ ← body(∆) except res] loop. *)
let maintain t entry (delta : Patch.delta) =
  let gone : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun id -> Hashtbl.replace gone id ()) delta.Patch.deleted;
  let survivors ns = List.filter (fun n -> not (Hashtbl.mem gone n.Node.id)) ns in
  let old_result = survivors entry.nodes in
  let old_seed = survivors entry.seed_nodes in
  let acc = Accumulator.create () in
  ignore
    (Accumulator.absorb acc ~who:"ivm survivors"
       (List.map (fun n -> Item.N n) old_result));
  let ev =
    Lang.Eval.create ~registry:t.registry
      ~max_iterations:entry.max_iterations ~stratified:entry.stratified ()
  in
  Lang.Eval.load_prolog ev entry.program;
  let seed' =
    Item.as_node_seq "ivm seed" (Lang.Eval.eval_expr ev entry.seed_expr)
  in
  let fed : (int, unit) Hashtbl.t = Hashtbl.create 1024 in
  List.iter (fun n -> Hashtbl.replace fed n.Node.id ()) old_seed;
  List.iter (fun n -> Hashtbl.replace fed n.Node.id ()) old_result;
  let fresh_seed =
    List.filter (fun n -> not (Hashtbl.mem fed n.Node.id)) seed'
  in
  let spine =
    let rec up n acc =
      let acc = if Hashtbl.mem fed n.Node.id then n :: acc else acc in
      match Node.parent n with None -> acc | Some q -> up q acc
    in
    up delta.Patch.edit_parent []
  in
  let frontier =
    Item.ddo (List.map (fun n -> Item.N n) (fresh_seed @ spine))
  in
  let rounds = ref 0 in
  let total_fresh = ref 0 in
  (* Always at least one round: even an empty frontier must revalidate
     doc("…")-constant parts of the body against the patched tree. *)
  let rec loop delta_in =
    incr rounds;
    if !rounds > entry.max_iterations then
      raise
        (Maintenance_failed
           (Printf.sprintf "maintenance exceeded %d iterations"
              entry.max_iterations));
    let out = Lang.Eval.eval_expr ev ~vars:[ (entry.var, delta_in) ] entry.body in
    let fresh, fresh_n, _ = Accumulator.absorb acc ~who:"ivm body" out in
    total_fresh := !total_fresh + fresh_n;
    if fresh_n > 0 then loop fresh
  in
  loop frontier;
  let dropped = List.length entry.nodes - List.length old_result in
  let serialized = Xdm.Serializer.seq_to_string (Accumulator.to_seq acc) in
  entry.nodes <- Accumulator.to_nodes acc;
  entry.seed_nodes <- seed';
  Maintained
    { serialized; delta_count = !total_fresh + dropped; rounds = !rounds }

let on_patch t ~uri ~op (delta : Patch.delta) =
  let touched =
    with_lock t (fun () ->
        Hashtbl.fold
          (fun k e acc -> if List.mem uri e.uris then (k, e) :: acc else acc)
          t.entries [])
  in
  let insert_op = match op with Patch.Insert _ -> true | _ -> false in
  List.map
    (fun ((hash, config), e) ->
      let drop reason =
        with_lock t (fun () ->
            Hashtbl.remove t.entries (hash, config);
            (counter_for t hash).fallback <-
              (counter_for t hash).fallback + 1);
        ((hash, config), Dropped reason)
      in
      match e.cls with
      | Analyze.Ivm_ineligible r -> drop r
      | Analyze.Ivm_insert_only when not insert_op ->
        drop "insert-only eligibility: deletions fall back to recompute"
      | Analyze.Ivm_full | Analyze.Ivm_insert_only -> (
        match maintain t e delta with
        | Dropped r -> drop r
        | Maintained m as outcome ->
          with_lock t (fun () ->
              let c = counter_for t hash in
              c.maintained <- c.maintained + 1;
              c.delta_nodes <- c.delta_nodes + m.delta_count);
          ((hash, config), outcome)
        | exception Maintenance_failed r -> drop r
        | exception Lang.Eval.Error r -> drop ("evaluation failed: " ^ r)
        | exception Xdm.Atom.Type_error r -> drop ("non-node result: " ^ r)))
    touched

let counters t =
  with_lock t (fun () ->
      Hashtbl.fold
        (fun hash c acc ->
          (hash, (c.maintained, c.fallback, c.delta_nodes)) :: acc)
        t.counters []
      |> List.sort compare)

let totals t =
  List.fold_left
    (fun (m, f, d) (_, (m', f', d')) -> (m + m', f + f', d + d'))
    (0, 0, 0) (counters t)
