module Node = Fixq_xdm.Node
module Atom = Fixq_xdm.Atom
module Axis = Fixq_xdm.Axis
module Accumulator = Fixq_xdm.Accumulator
module Doc_registry = Fixq_xdm.Doc_registry
module Encoding = Fixq_store.Encoding
module Staircase = Fixq_store.Staircase
module Stats = Fixq_lang.Stats

exception Error of string

let err fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

(* Plans are DAGs: compiled plans share subtrees (e.g. the context
   binding feeding both inputs of an id-join). Each physical node must
   evaluate exactly once per environment — operators like # (Tag) mint
   fresh values per evaluation, so re-evaluating a shared subtree would
   break join alignment. A fresh memo table is used per fixpoint
   round (the Fix_ref binding changes). *)
module Phys = Hashtbl.Make (struct
  type t = Plan.t

  let equal = ( == )

  (* Structural but depth-bounded (OCaml's generic hash): distinct
     physical nodes may collide only when structurally similar, and
     [equal] disambiguates. Hashing by operator symbol alone would
     degenerate every δ/π bucket into a linear scan. *)
  let hash = Hashtbl.hash
end)

type t = {
  registry : Doc_registry.t;
  max_iterations : int;
  stats : Stats.t;
  persistent : Relation.t Phys.t;
  contains : (int, bool) Hashtbl.t Phys.t;
      (** [contains_ref] answers per plan node, for this engine's plans *)
  trees : (int, Encoding.t) Hashtbl.t;
      (** encodings of trees without a URI (built by the query), by root
          id; documents use {!Encoding.of_tree_cached} *)
}

let create ?(registry = Doc_registry.default) ?(max_iterations = 1_000_000)
    ~stats () =
  { registry; max_iterations; stats; persistent = Phys.create 256;
    contains = Phys.create 256; trees = Hashtbl.create 16 }

let stats t = t.stats

module Imap = Map.Make (Int)

let cmp_holds (c : Plan.cmp) ord =
  match c with
  | Plan.Ceq -> ord = 0
  | Plan.Cne -> ord <> 0
  | Plan.Clt -> ord < 0
  | Plan.Cle -> ord <= 0
  | Plan.Cgt -> ord > 0
  | Plan.Cge -> ord >= 0

let eval_prim prim (args : Value.t list) =
  match (prim, args) with
  | (Plan.P_cmp c, [ a; b ]) -> Value.Bool (cmp_holds c (Value.compare_value a b))
  | (Plan.P_arith op, [ a; b ]) -> (
    let ai = Value.to_atom a and bi = Value.to_atom b in
    match (op, ai, bi) with
    | (Fixq_lang.Ast.Add, Atom.Int x, Atom.Int y) -> Value.Int (x + y)
    | (Fixq_lang.Ast.Sub, Atom.Int x, Atom.Int y) -> Value.Int (x - y)
    | (Fixq_lang.Ast.Mul, Atom.Int x, Atom.Int y) -> Value.Int (x * y)
    | (Fixq_lang.Ast.Idiv, _, _) -> Value.Int (Atom.to_int ai / Atom.to_int bi)
    | (Fixq_lang.Ast.Mod, Atom.Int x, Atom.Int y) -> Value.Int (x mod y)
    | (Fixq_lang.Ast.Add, _, _) ->
      Value.Dbl (Atom.to_number ai +. Atom.to_number bi)
    | (Fixq_lang.Ast.Sub, _, _) ->
      Value.Dbl (Atom.to_number ai -. Atom.to_number bi)
    | (Fixq_lang.Ast.Mul, _, _) ->
      Value.Dbl (Atom.to_number ai *. Atom.to_number bi)
    | (Fixq_lang.Ast.Div, _, _) ->
      Value.Dbl (Atom.to_number ai /. Atom.to_number bi)
    | (Fixq_lang.Ast.Mod, _, _) ->
      Value.Dbl (Float.rem (Atom.to_number ai) (Atom.to_number bi)))
  | (Plan.P_and, [ a; b ]) -> Value.Bool (Value.to_bool a && Value.to_bool b)
  | (Plan.P_or, [ a; b ]) -> Value.Bool (Value.to_bool a || Value.to_bool b)
  | (Plan.P_not, [ a ]) -> Value.Bool (not (Value.to_bool a))
  | (Plan.P_data, [ a ]) -> (
    match a with Value.Nd n -> Value.Str (Node.string_value n) | v -> v)
  | (Plan.P_name, [ a ]) -> Value.Str (Node.name (Value.as_node "name" a))
  | (Plan.P_root, [ a ]) -> Value.Nd (Node.root (Value.as_node "root" a))
  | (Plan.P_ebv, [ a ]) -> (
    match a with Value.Nd _ -> Value.Bool true | v -> Value.Bool (Value.to_bool v))
  | (Plan.P_const v, []) -> v
  | _ -> err "⊚: arity mismatch"

(* Batch (columnar) evaluation of ⊚: whole-column kernels for the hot
   primitives, boxed row-at-a-time only for the rest. *)
let eval_fun_col prim (args : Relation.col list) n =
  match (prim, args) with
  | (Plan.P_const v, []) -> (
    match v with
    | Value.Int x -> Relation.Ints (Array.make n x)
    | Value.Str s -> Relation.Strs (Array.make n s)
    | Value.Bool b -> Relation.Bools (Array.make n b)
    | Value.Nd nd -> Relation.Nodes (Array.make n nd)
    | Value.Dbl _ -> Relation.Vals (Array.make n v))
  | (Plan.P_data, [ c ]) -> (
    match c with
    | Relation.Nodes a -> Relation.Strs (Array.map Node.string_value a)
    | Relation.Ints _ | Relation.Strs _ | Relation.Bools _ -> c
    | Relation.Vals a ->
      Relation.col_of_values
        (Array.map
           (function
             | Value.Nd nd -> Value.Str (Node.string_value nd)
             | v -> v)
           a))
  | (Plan.P_ebv, [ c ]) -> (
    match c with
    | Relation.Nodes _ -> Relation.Bools (Array.make n true)
    | Relation.Bools _ -> c
    | Relation.Ints a -> Relation.Bools (Array.map (fun x -> x <> 0) a)
    | Relation.Strs a ->
      Relation.Bools (Array.map (fun s -> String.length s > 0) a)
    | Relation.Vals a ->
      Relation.Bools
        (Array.map
           (function Value.Nd _ -> true | v -> Value.to_bool v)
           a))
  | (Plan.P_cmp cm, [ a; b ]) -> (
    (* Value.compare_value atomizes: Int/Int and Str/Str reduce to the
       primitive comparisons, which covers iter and data() columns. *)
    match (a, b) with
    | (Relation.Ints x, Relation.Ints y) ->
      Relation.Bools
        (Array.init n (fun i -> cmp_holds cm (Int.compare x.(i) y.(i))))
    | (Relation.Strs x, Relation.Strs y) ->
      Relation.Bools
        (Array.init n (fun i -> cmp_holds cm (String.compare x.(i) y.(i))))
    | _ ->
      Fixq_xdm.Counters.col_boxed_rows :=
        !Fixq_xdm.Counters.col_boxed_rows + n;
      Relation.Bools
        (Array.init n (fun i ->
             cmp_holds cm
               (Value.compare_value (Relation.col_get a i)
                  (Relation.col_get b i)))))
  | _ ->
    Fixq_xdm.Counters.col_boxed_rows := !Fixq_xdm.Counters.col_boxed_rows + n;
    Relation.col_of_values
      (Array.init n (fun i ->
           eval_prim prim (List.map (fun c -> Relation.col_get c i) args)))

let whitespace_tokens s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\n')
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun x -> x <> "")

(* Axis steps repeat heavily across fixpoint rounds (lifted
   loop-invariant paths re-enter the step with the same context nodes),
   so results are cached per (axis, test, context node) in the step
   memo of the context tree's encoding, which a patch retires with the
   encoding. The (axis, test) part is interned to a small integer once
   per step evaluation, so the per-row cache key is a single unboxed
   int — hashing a string tuple per row costs more than the staircase
   scan it saves. *)
let step_ids : (string, int) Hashtbl.t = Hashtbl.create 64

let step_id_of key =
  match Hashtbl.find_opt step_ids key with
  | Some i -> i
  | None ->
    let i = Hashtbl.length step_ids in
    Hashtbl.add step_ids key i;
    i

(* node ids are dense ints; 20 bits cover every (axis, name-test) pair
   a process will ever intern while leaving 42 for the node id *)
let step_single enc axis test step_id (n : Node.t) =
  let key = (n.Node.id lsl 20) lor step_id in
  let memo = Encoding.steps enc in
  match Hashtbl.find_opt memo key with
  | Some r -> r
  | None ->
    let r = Staircase.step_nodes enc axis test [ n ] in
    Hashtbl.replace memo key r;
    r

(* Growable parallel (source index, result node) buffers for the step
   kernel output. *)
type step_buf = {
  mutable src : int array;
  mutable nds : Node.t array;
  mutable n : int;
}

let step_push b i (m : Node.t) =
  if b.n = Array.length b.src then begin
    let cap = max 64 (b.n * 2) in
    let src' = Array.make cap 0 in
    Array.blit b.src 0 src' 0 b.n;
    b.src <- src';
    let nds' = Array.make cap m in
    Array.blit b.nds 0 nds' 0 b.n;
    b.nds <- nds'
  end;
  b.src.(b.n) <- i;
  b.nds.(b.n) <- m;
  b.n <- b.n + 1

let encoding t (root : Node.t) =
  match Node.uri root with
  | Some _ -> Encoding.of_tree_cached root
  | None -> (
    match Hashtbl.find_opt t.trees root.Node.id with
    | Some enc -> enc
    | None ->
      let enc = Encoding.of_tree root in
      Hashtbl.replace t.trees root.Node.id enc;
      enc)

let eval_step t rel axis test colname =
  let ci = Relation.column_index rel colname in
  let c = (Relation.cols rel).(ci) in
  let n = Relation.cardinal rel in
  (* The textual cache key is a function of (axis, test) only — build it
     once per step evaluation, not once per row. *)
  let step_id =
    step_id_of
      (Axis.axis_to_string axis ^ "|" ^ Format.asprintf "%a" Axis.pp_test test)
  in
  let node_at =
    match c with
    | Relation.Nodes a -> fun i -> a.(i)
    | _ -> fun i -> Value.as_node "step" (Relation.col_get c i)
  in
  (* consecutive rows mostly share a tree: look its encoding up once *)
  let last = ref None in
  let encoding_of (m : Node.t) =
    let root = Node.root m in
    match !last with
    | Some (r, enc) when r == root -> enc
    | _ ->
      let enc = encoding t root in
      last := Some (root, enc);
      enc
  in
  let buf = { src = [||]; nds = [||]; n = 0 } in
  for i = 0 to n - 1 do
    let m = node_at i in
    List.iter (step_push buf i) (step_single (encoding_of m) axis test step_id m)
  done;
  let src = Array.sub buf.src 0 buf.n in
  let gathered = Relation.gather rel src in
  let cols = Array.copy (Relation.cols gathered) in
  cols.(ci) <- Relation.Nodes (Array.sub buf.nds 0 buf.n);
  Relation.distinct (Relation.of_cols (Relation.schema rel) cols)

let eval_id_join registry ctx_rel arg_rel =
  ignore registry;
  (* Roots available per iter, from the ctx nodes. *)
  let iter_ci = Relation.column_index ctx_rel "iter" in
  let item_ci = Relation.column_index ctx_rel "item" in
  let roots_by_iter = Hashtbl.create 16 in
  List.iter
    (fun row ->
      match row.(item_ci) with
      | Value.Nd n ->
        let key = Value.key row.(iter_ci) in
        let r = Node.root n in
        let existing =
          Option.value ~default:[] (Hashtbl.find_opt roots_by_iter key)
        in
        if not (List.exists (fun x -> Node.equal x r) existing) then
          Hashtbl.replace roots_by_iter key (r :: existing)
      | _ -> ())
    (Relation.rows ctx_rel);
  let a_iter = Relation.column_index arg_rel "iter" in
  let a_item = Relation.column_index arg_rel "item" in
  let out = ref [] in
  List.iter
    (fun row ->
      let key = Value.key row.(a_iter) in
      let roots =
        Option.value ~default:[] (Hashtbl.find_opt roots_by_iter key)
      in
      let tokens =
        whitespace_tokens (Atom.to_string (Value.to_atom row.(a_item)))
      in
      List.iter
        (fun tok ->
          List.iter
            (fun root ->
              match Node.lookup_id root tok with
              | Some e ->
                let r = Array.copy row in
                r.(a_item) <- Value.Nd e;
                out := r :: !out
              | None -> ())
            roots)
        tokens)
    (Relation.rows arg_rel);
  Relation.distinct (Relation.create (Relation.schema arg_rel) (List.rev !out))

let eval_aggr agg spec rel =
  let module P = Plan in
  match agg with
  | P.A_count ->
    Relation.group_count ~partition:spec.P.agg_partition
      ~result:spec.P.agg_result rel
  | P.A_sum | P.A_max | P.A_min ->
    let input =
      match spec.P.agg_input with
      | Some c -> c
      | None -> err "aggr: sum/max/min need an input column"
    in
    let ii = Relation.column_index rel input in
    let groups = Hashtbl.create 16 in
    let keys = ref [] in
    let part_ci = Option.map (Relation.column_index rel) spec.P.agg_partition in
    List.iter
      (fun row ->
        let key =
          match part_ci with None -> Value.KI 0 | Some i -> Value.key row.(i)
        in
        (match Hashtbl.find_opt groups key with
        | None ->
          keys := (key, row) :: !keys;
          Hashtbl.add groups key [ row.(ii) ]
        | Some vs -> Hashtbl.replace groups key (row.(ii) :: vs)))
      (Relation.rows rel);
    let fold vs =
      match agg with
      | P.A_sum ->
        Value.Dbl
          (List.fold_left
             (fun acc v -> acc +. Atom.to_number (Value.to_atom v))
             0.0 vs)
      | P.A_max ->
        List.fold_left
          (fun acc v -> if Value.compare_value v acc > 0 then v else acc)
          (List.hd vs) (List.tl vs)
      | P.A_min ->
        List.fold_left
          (fun acc v -> if Value.compare_value v acc < 0 then v else acc)
          (List.hd vs) (List.tl vs)
      | P.A_count -> assert false
    in
    let schema =
      match spec.P.agg_partition with
      | None -> [ spec.P.agg_result ]
      | Some p -> [ p; spec.P.agg_result ]
    in
    let rows =
      List.rev_map
        (fun (key, proto) ->
          let v = fold (Hashtbl.find groups key) in
          match part_ci with
          | None -> [| v |]
          | Some i -> [| proto.(i); v |])
        !keys
    in
    Relation.create schema rows

(* Memo lifetimes:
   - volatile: plans depending on a Fix_ref being iterated by an
     enclosing µ/µ∆ — fresh every round;
   - run: plans depending on externally bound refs (variable bindings of
     a compiled body) — fresh per [run_with] call;
   - persistent (process-wide): pure plans over immutable documents —
     shared across runs, so e.g. [$doc//open_auction] materializes once
     even when thousands of fixpoints reuse it. *)
type env = {
  fix : Relation.t Imap.t;
  volatile : Relation.t Phys.t;
  run : Relation.t Phys.t;
  dep_ids : int list;  (** Fix_ref ids currently iterated *)
  run_ids : int list;  (** externally bound Fix_ref ids *)
}

let contains_ref t id p =
  let tbl =
    match Phys.find_opt t.contains p with
    | Some tbl -> tbl
    | None ->
      let tbl = Hashtbl.create 4 in
      Phys.replace t.contains p tbl;
      tbl
  in
  match Hashtbl.find_opt tbl id with
  | Some b -> b
  | None ->
    let b = Plan.contains_fix_ref id p in
    Hashtbl.replace tbl id b;
    b

let memo_for t env p =
  if List.exists (fun id -> contains_ref t id p) env.dep_ids then env.volatile
  else if List.exists (fun id -> contains_ref t id p) env.run_ids then env.run
  else t.persistent

let profile : (string, int * int * float) Hashtbl.t = Hashtbl.create 64

(* Per-pair theta checks for a join, precompiled per column pair
   (specialized for the common string/int columns). *)
(* Promote θ-equalities over same-kind string/int columns into hash
   keys: [String.compare]/[Int.compare] equality coincides with the
   equi-join's [col_eq] on those kinds, and a hash probe replaces a
   per-pair bucket scan (the d=d value filters degenerate to O(|l|·|r|)
   otherwise). Mixed-kind comparisons keep θ's [Value.compare_value]
   coercions and stay residual. *)
let promote_theta_eq ra rb pred =
  let promote, rest =
    List.partition
      (fun (lc, cm, rc) ->
        cm = Plan.Ceq
        && (match (Relation.col ra lc, Relation.col rb rc) with
           | (Relation.Strs _, Relation.Strs _)
           | (Relation.Ints _, Relation.Ints _) ->
             true
           | _ -> false
           | exception _ -> false))
      pred.Plan.theta
  in
  (pred.Plan.equi @ List.map (fun (l, _, r) -> (l, r)) promote, rest)

let theta_extra ra rb theta =
  if theta = [] then None
  else begin
    let checks =
      List.map
        (fun (lc, cm, rc) ->
          let ca = Relation.col ra lc and cb = Relation.col rb rc in
          match (ca, cb) with
          | (Relation.Strs x, Relation.Strs y) ->
            fun i j -> cmp_holds cm (String.compare x.(i) y.(j))
          | (Relation.Ints x, Relation.Ints y) ->
            fun i j -> cmp_holds cm (Int.compare x.(i) y.(j))
          | _ ->
            fun i j ->
              cmp_holds cm
                (Value.compare_value (Relation.col_get ca i)
                   (Relation.col_get cb j)))
        theta
    in
    Some (fun i j -> List.for_all (fun f -> f i j) checks)
  end

(* Per-operator self-time accounting is opt-in: the two clock reads per
   evaluation are measurable on workloads with tens of thousands of
   tiny fixpoint rounds. *)
let profile_timing = ref false

(* Time spent in child evaluations of the current [eval_raw] frame, so
   the profile records self-time per operator, not inclusive time. *)
let child_time = ref 0.0

let rec eval t env p =
  let memo = memo_for t env p in
  match Phys.find_opt memo p with
  | Some rel -> rel
  | None ->
    let timed = !profile_timing in
    let t0 = if timed then Sys.time () else 0.0 in
    let saved = !child_time in
    child_time := 0.0;
    let rel = eval_raw t env p in
    let self =
      if timed then begin
        let elapsed = Sys.time () -. t0 in
        let s = elapsed -. !child_time in
        child_time := saved +. elapsed;
        s
      end
      else 0.0
    in
    (let sym = Plan.op_symbol p in
     let kind =
       if memo == env.volatile then "V:"
       else if memo == env.run then "R:"
       else "P:"
     in
     let key = kind ^ String.sub sym 0 (min 6 (String.length sym)) in
     let (c, r, s) =
       Option.value ~default:(0, 0, 0.) (Hashtbl.find_opt profile key)
     in
     Hashtbl.replace profile key (c + 1, r + Relation.cardinal rel, s +. self));
    Phys.replace memo p rel;
    rel

and eval_raw t env (p : Plan.t) : Relation.t =
  match p with
  | Plan.Lit_table (schema, rows) -> Relation.create schema rows
  | Plan.Doc uri -> (
    match Doc_registry.find ~registry:t.registry uri with
    | Some d -> Relation.create [ "item" ] [ [| Value.Nd d |] ]
    | None -> err "doc: document %S is not available" uri)
  | Plan.Fix_ref (id, schema) -> (
    match Imap.find_opt id env.fix with
    | Some rel -> rel
    | None -> Relation.empty schema)
  | Plan.Project (cols, q) -> Relation.project cols (eval t env q)
  | Plan.Select (c, q) -> Relation.select_bool c (eval t env q)
  | Plan.Join (pred, a, b) ->
    let ra = eval t env a and rb = eval t env b in
    let keys, residual = promote_theta_eq ra rb pred in
    let extra = theta_extra ra rb residual in
    Relation.equi_join ?extra keys ra rb
  | Plan.Cross (a, b) -> Relation.cross (eval t env a) (eval t env b)
  | Plan.Distinct (Plan.Project (cols, Plan.Join (pred, a, b)))
    when (match Plan.schema_of a with
         | sa -> List.for_all (fun (_, o) -> List.mem o sa) cols
         | exception _ -> false) ->
    (* δ∘π∘⋈ keeping only left-side columns is an existential filter —
       a semi-join: each left row survives at most once, and the match
       pairs are never materialized. (A left column's output name is
       never claimed by the right side: clashing right columns are
       renamed.) *)
    let ra = eval t env a and rb = eval t env b in
    let keys, residual = promote_theta_eq ra rb pred in
    let extra = theta_extra ra rb residual in
    Relation.distinct
      (Relation.project cols (Relation.semi_join ?extra keys ra rb))
  | Plan.Distinct q -> Relation.distinct (eval t env q)
  | Plan.Union (a, b) -> Relation.union (eval t env a) (eval t env b)
  | Plan.Difference (a, b) ->
    Relation.difference (eval t env a) (eval t env b)
  | Plan.Aggr (agg, spec, q) -> eval_aggr agg spec (eval t env q)
  | Plan.Fun (prim, spec, q) ->
    let rel = eval t env q in
    let args =
      List.map
        (fun a -> (Relation.cols rel).(Relation.column_index rel a))
        spec.Plan.fun_args
    in
    Relation.append_col spec.Plan.fun_result
      (eval_fun_col prim args (Relation.cardinal rel))
      rel
  | Plan.Tag (c, q) -> Relation.tag ~result:c (eval t env q)
  | Plan.Row_num (spec, q) ->
    Relation.number ~order:spec.Plan.num_order
      ~partition:spec.Plan.num_partition ~result:spec.Plan.num_result
      (eval t env q)
  | Plan.Step (axis, test, col, q) -> eval_step t (eval t env q) axis test col
  | Plan.Id_join (ctx, arg) ->
    eval_id_join t.registry (eval t env ctx) (eval t env arg)
  | Plan.Construct (kind, _) ->
    err "the algebra engine does not construct nodes (ε:%s)" kind
  | Plan.Template (_, q) -> eval t env q
  | Plan.Iterate it -> eval t env it.Plan.it_result
  | Plan.Mu f -> eval_mu t env ~delta:false f
  | Plan.Mu_delta f -> eval_mu t env ~delta:true f

(* µ (Naïve) and µ∆ (Delta) at the algebra level: Figure 3 lifted to
   relations. The seen-set has two modes: packed mode covers the
   dominant [iter|item] shapes (int iters, node or int items) with two
   unboxed probes into an off-heap pair set; if a round produces a
   column kind packed keys can't represent (strings, doubles,
   width > 2), the accumulated runs replay once into the boxed row
   table and the loop continues there. *)
and eval_mu t env ~delta (f : Plan.fix) =
  Stats.start_run t.stats;
  let seed = Relation.distinct (eval t env f.seed) in
  let schema_width = List.length (Relation.schema seed) in
  let record ~fed ~produced ~result_size =
    Stats.record_iteration t.stats ~fed ~produced ~result_size
  in
  let apply input =
    (* Fresh volatile memo — the Fix_ref binding changed; loop-invariant
       subplans keep their persistent entries across rounds. *)
    eval t
      { env with
        fix = Imap.add f.fix_id input env.fix;
        volatile = Phys.create 64;
        dep_ids = f.fix_id :: env.dep_ids }
      f.body
  in
  let runs = ref [] in
  (* newest first *)
  let packed =
    (* sized from the seed: thousands of small per-course fixpoints must
       not each pay for a large off-heap table *)
    if schema_width >= 1 && schema_width <= 2 then
      Some (Relation.Pair_set.create (max 8 (Relation.cardinal seed * 4)))
    else None
  in
  let packed_ok = ref (packed <> None) in
  let boxed : unit Relation.Row_tbl.t lazy_t =
    lazy
      (let tbl = Relation.Row_tbl.create 1024 in
       (* migrate: replay already-accumulated runs *)
       List.iter
         (fun run ->
           for i = 0 to Relation.cardinal run - 1 do
             Relation.Row_tbl.replace tbl (Relation.row run i) ()
           done)
         !runs;
       tbl)
  in
  let total = ref 0 in
  (* Sorted-run bookkeeping: while the fixpoint stays over ["iter";
     "item"] rows with one constant iter and node items, per-round
     deltas are kept sorted by node id so the final assembly is a pure
     linear merge (and downstream ddo sees already-sorted input). *)
  let node_mode = ref (Relation.schema seed = [ "iter"; "item" ]) in
  let node_iter = ref None in
  let check_node_mode rel =
    if !node_mode && Relation.cardinal rel > 0 then
      match Relation.cols rel with
      | [| Relation.Ints iters; Relation.Nodes _ |] ->
        let v0 = match !node_iter with Some v -> v | None -> iters.(0) in
        node_iter := Some v0;
        if not (Array.for_all (fun v -> v = v0) iters) then node_mode := false
      | _ -> node_mode := false
  in
  let sort_run rel =
    (* silent pre-sort: makes every later merge input already sorted *)
    match Relation.cols rel with
    | [| Relation.Ints _; Relation.Nodes nds |] when !node_mode ->
      let n = Array.length nds in
      let sorted = ref true in
      for i = 1 to n - 1 do
        if nds.(i - 1).Node.id >= nds.(i).Node.id then sorted := false
      done;
      if !sorted then rel
      else begin
        let idx = Array.init n (fun i -> i) in
        Array.sort (fun i j -> Int.compare nds.(i).Node.id nds.(j).Node.id) idx;
        Relation.gather rel idx
      end
    | _ -> rel
  in
  (* Fresh first-occurrence rows of [rel] not seen before, in row order;
     also their count and [rel]'s raw cardinality, from the same pass. *)
  let fresh_of rel =
    let n = Relation.cardinal rel in
    let produced = n in
    let idx = Array.make n 0 in
    let k = ref 0 in
    let use_packed =
      !packed_ok
      &&
      match packed with
      | None -> false
      | Some set -> (
        let cols = Relation.cols rel in
        let reps = Array.map Relation.int_rep cols in
        if Array.for_all Option.is_some reps then begin
          (match reps with
          | [| Some r1 |] ->
            for i = 0 to n - 1 do
              if Relation.Pair_set.add set (r1 i) 0 then begin
                idx.(!k) <- i;
                incr k
              end
            done
          | [| Some r1; Some r2 |] ->
            for i = 0 to n - 1 do
              if Relation.Pair_set.add set (r1 i) (r2 i) then begin
                idx.(!k) <- i;
                incr k
              end
            done
          | _ -> assert false);
          true
        end
        else false)
    in
    if not use_packed then begin
      (* boxed fallback; disable packed mode for all later rounds so the
         two structures never diverge *)
      packed_ok := false;
      let tbl = Lazy.force boxed in
      k := 0;
      for i = 0 to n - 1 do
        let r = Relation.row rel i in
        if not (Relation.Row_tbl.mem tbl r) then begin
          Relation.Row_tbl.replace tbl r ();
          idx.(!k) <- i;
          incr k
        end
      done
    end;
    let fresh = Relation.gather rel (Array.sub idx 0 !k) in
    check_node_mode fresh;
    let fresh = sort_run fresh in
    total := !total + !k;
    if !k > 0 then runs := fresh :: !runs;
    (fresh, !k, produced)
  in
  let first = apply seed in
  let schema = Relation.schema first in
  let (fresh0, n0, first_n) = fresh_of first in
  record ~fed:(Relation.cardinal seed) ~produced:first_n ~result_size:!total;
  let assemble () =
    let rs = List.rev !runs in
    if !node_mode then
      (* pairwise linear merges over sorted, disjoint runs (the PR 3
         accumulator kernel) — output lands in document order, so the
         result gather is merge-only. *)
      let node_runs =
        List.map
          (fun r ->
            match Relation.cols r with
            | [| _; Relation.Nodes nds |] -> nds
            | _ -> assert false)
          rs
      in
      let merged = Accumulator.merge_runs node_runs in
      let iter_v = match !node_iter with Some v -> v | None -> 1 in
      Relation.of_cols schema
        [| Relation.Ints (Array.make (Array.length merged) iter_v);
           Relation.Nodes merged |]
    else Relation.concat_many schema rs
  in
  if delta then begin
    let rec loop dl dl_n i =
      if i > t.max_iterations then err "µ∆ diverged after %d iterations" i;
      let out = apply dl in
      let (fresh, fresh_n, out_n) = fresh_of out in
      record ~fed:dl_n ~produced:out_n ~result_size:!total;
      if fresh_n = 0 then assemble () else loop fresh fresh_n (i + 1)
    in
    loop fresh0 n0 1
  end
  else begin
    let rec loop res res_n i =
      if i > t.max_iterations then err "µ diverged after %d iterations" i;
      let out = apply res in
      let (fresh, fresh_n, out_n) = fresh_of out in
      record ~fed:res_n ~produced:out_n ~result_size:!total;
      if fresh_n = 0 then assemble ()
      else loop (Relation.union res fresh) (res_n + fresh_n) (i + 1)
    in
    loop fresh0 n0 1
  end

type session = Relation.t Phys.t

let new_session () : session = Phys.create 64

let run_with t ?session bindings p =
  let fix =
    List.fold_left (fun m (id, rel) -> Imap.add id rel m) Imap.empty bindings
  in
  let run = match session with Some s -> s | None -> new_session () in
  eval t
    { fix; volatile = Phys.create 64; run;
      dep_ids = []; run_ids = List.map fst bindings }
    p

let run t p = run_with t [] p
