module Node = Fixq_xdm.Node
module Counters = Fixq_xdm.Counters

(* Columnar storage: one typed vector per column. [iter]/[pos]/tag/rank
   columns and int cells live in unboxed [int array]s, node columns in
   [Node.t array]s (identity = dense preorder id), strings/bools in
   their own vectors; [Vals] is the boxed fallback for mixed columns.
   Operators are batch kernels over whole columns: projection is column
   pointer selection, select/join/distinct produce row-index vectors and
   gather the survivors, so the per-row boxing and hashing of the old
   list-of-[Value.t array] representation only remains on cold paths. *)
type col =
  | Ints of int array
  | Nodes of Node.t array
  | Bools of bool array
  | Strs of string array
  | Vals of Value.t array

type t = { schema : string list; nrows : int; cols : col array }

let batch n =
  incr Counters.col_batches;
  Counters.col_rows := !Counters.col_rows + n

let boxed_rows n = Counters.col_boxed_rows := !Counters.col_boxed_rows + n

let col_length = function
  | Ints a -> Array.length a
  | Nodes a -> Array.length a
  | Bools a -> Array.length a
  | Strs a -> Array.length a
  | Vals a -> Array.length a

let col_get c i : Value.t =
  match c with
  | Ints a -> Value.Int a.(i)
  | Nodes a -> Value.Nd a.(i)
  | Bools a -> Value.Bool a.(i)
  | Strs a -> Value.Str a.(i)
  | Vals a -> a.(i)

(* Cell hash, aligned with {!Value.hash_cell} so mixed-variant columns
   (one side typed, the other boxed) still group together. *)
let col_hash c i =
  match c with
  | Ints a -> Hashtbl.hash (Array.unsafe_get a i)
  | Nodes a -> 0x9e3779b1 * ((Array.unsafe_get a i).Node.id + 1)
  | Bools a -> Hashtbl.hash (Array.unsafe_get a i)
  | Strs a -> Hashtbl.hash (Array.unsafe_get a i)
  | Vals a -> Value.hash_cell (Array.unsafe_get a i)

(* Cell equality under the {!Value.equal_key_cell} equivalence. *)
let col_eq a i b j =
  match (a, b) with
  | (Ints x, Ints y) -> Int.equal x.(i) y.(j)
  | (Nodes x, Nodes y) -> x.(i).Node.id = y.(j).Node.id
  | (Bools x, Bools y) -> Bool.equal x.(i) y.(j)
  | (Strs x, Strs y) -> String.equal x.(i) y.(j)
  | _ -> Value.equal_key_cell (col_get a i) (col_get b j)

(* Cell order under {!Value.compare} (nodes by document order). *)
let col_order a i b j =
  match (a, b) with
  | (Ints x, Ints y) -> Int.compare x.(i) y.(j)
  | (Nodes x, Nodes y) -> Node.compare_doc_order x.(i) y.(j)
  | (Strs x, Strs y) -> String.compare x.(i) y.(j)
  | (Bools x, Bools y) -> Bool.compare x.(i) y.(j)
  | _ -> Value.compare (col_get a i) (col_get b j)

(* Packed integer representation of int-like cells, used by the hashing
   kernels and the µ seen-sets: 2 kind bits keep Int 1, node id 1 and
   true distinct, matching [Value.equal_key_cell] across kinds. *)
let int_rep = function
  | Ints a -> Some (fun i -> (Array.unsafe_get a i) lsl 2)
  | Nodes a -> Some (fun i -> ((Array.unsafe_get a i).Node.id lsl 2) lor 1)
  | Bools a -> Some (fun i -> ((if Array.unsafe_get a i then 1 else 0) lsl 2) lor 2)
  | Strs _ | Vals _ -> None

let gather_col c (idx : int array) =
  match c with
  | Ints a -> Ints (Array.map (fun i -> Array.unsafe_get a i) idx)
  | Nodes a -> Nodes (Array.map (fun i -> Array.unsafe_get a i) idx)
  | Bools a -> Bools (Array.map (fun i -> Array.unsafe_get a i) idx)
  | Strs a -> Strs (Array.map (fun i -> Array.unsafe_get a i) idx)
  | Vals a -> Vals (Array.map (fun i -> Array.unsafe_get a i) idx)

let concat_col a b =
  if col_length a = 0 then b
  else if col_length b = 0 then a
  else
    match (a, b) with
    | (Ints x, Ints y) -> Ints (Array.append x y)
    | (Nodes x, Nodes y) -> Nodes (Array.append x y)
    | (Bools x, Bools y) -> Bools (Array.append x y)
    | (Strs x, Strs y) -> Strs (Array.append x y)
    | (Vals x, Vals y) -> Vals (Array.append x y)
    | _ ->
      let la = col_length a and lb = col_length b in
      boxed_rows (la + lb);
      Vals
        (Array.init (la + lb) (fun i ->
             if i < la then col_get a i else col_get b (i - la)))

(* ------------------------------------------------------------------ *)
(* Construction and accessors                                          *)
(* ------------------------------------------------------------------ *)

let schema t = t.schema
let cardinal t = t.nrows
let cols t = t.cols

let of_cols schema cols =
  let nrows = if Array.length cols = 0 then 0 else col_length cols.(0) in
  Array.iter
    (fun c ->
      if col_length c <> nrows then
        invalid_arg "Relation.of_cols: ragged columns")
    cols;
  if List.length schema <> Array.length cols then
    invalid_arg "Relation.of_cols: schema/column arity mismatch";
  { schema; nrows; cols }

let empty schema =
  { schema; nrows = 0;
    cols = Array.of_list (List.map (fun _ -> Ints [||]) schema) }

(* Column type detection when building from boxed rows: a uniform cell
   kind gets a typed vector, anything mixed stays boxed. *)
let column_of_cells n get =
  if n = 0 then Ints [||]
  else
    let kind v =
      match (v : Value.t) with
      | Value.Int _ -> 0
      | Value.Nd _ -> 1
      | Value.Bool _ -> 2
      | Value.Str _ -> 3
      | Value.Dbl _ -> 4
    in
    let k0 = kind (get 0) in
    let uniform = ref true in
    for i = 1 to n - 1 do
      if kind (get i) <> k0 then uniform := false
    done;
    if not !uniform then begin
      boxed_rows n;
      Vals (Array.init n get)
    end
    else
      match get 0 with
      | Value.Int _ ->
        Ints
          (Array.init n (fun i ->
               match get i with Value.Int x -> x | _ -> assert false))
      | Value.Nd _ ->
        Nodes
          (Array.init n (fun i ->
               match get i with Value.Nd x -> x | _ -> assert false))
      | Value.Bool _ ->
        Bools
          (Array.init n (fun i ->
               match get i with Value.Bool x -> x | _ -> assert false))
      | Value.Str _ ->
        Strs
          (Array.init n (fun i ->
               match get i with Value.Str x -> x | _ -> assert false))
      | Value.Dbl _ ->
        boxed_rows n;
        Vals (Array.init n get)

let col_of_values (a : Value.t array) =
  column_of_cells (Array.length a) (fun i -> a.(i))

let create schema rows =
  let width = List.length schema in
  List.iter
    (fun r ->
      if Array.length r <> width then
        invalid_arg
          (Printf.sprintf "Relation.create: row width %d, schema width %d"
             (Array.length r) width))
    rows;
  let ra = Array.of_list rows in
  let n = Array.length ra in
  { schema; nrows = n;
    cols = Array.init width (fun j -> column_of_cells n (fun i -> ra.(i).(j))) }

let column_index t c =
  let rec go i = function
    | [] -> invalid_arg (Printf.sprintf "Relation: unknown column %S" c)
    | x :: rest -> if String.equal x c then i else go (i + 1) rest
  in
  go 0 t.schema

let col t name = t.cols.(column_index t name)

let row t i = Array.map (fun c -> col_get c i) t.cols

let rows t =
  let out = ref [] in
  for i = t.nrows - 1 downto 0 do
    out := row t i :: !out
  done;
  !out

let get t r c = r.(column_index t c)

let gather t idx =
  { schema = t.schema; nrows = Array.length idx;
    cols = Array.map (fun c -> gather_col c idx) t.cols }

let concat_many schema = function
  | [] -> empty schema
  | [ r ] -> r
  | r0 :: _ as rels ->
    let nrows = List.fold_left (fun acc r -> acc + r.nrows) 0 rels in
    batch nrows;
    let cols =
      Array.mapi
        (fun j _ ->
          List.fold_left
            (fun acc r -> concat_col acc r.cols.(j))
            (Ints [||]) rels)
        r0.cols
    in
    { schema; nrows; cols }

(* ------------------------------------------------------------------ *)
(* Projection / selection                                              *)
(* ------------------------------------------------------------------ *)

(* Columnar projection is column-pointer selection: no row is copied. *)
let project renames t =
  let pick =
    Array.of_list (List.map (fun (_, old) -> col t old) renames)
  in
  { schema = List.map fst renames; nrows = t.nrows; cols = pick }

let select_bool name t =
  batch t.nrows;
  let c = col t name in
  let idx = Array.make t.nrows 0 in
  let n = ref 0 in
  (match c with
  | Bools a ->
    for i = 0 to t.nrows - 1 do
      if Array.unsafe_get a i then begin
        idx.(!n) <- i;
        incr n
      end
    done
  | _ ->
    boxed_rows t.nrows;
    for i = 0 to t.nrows - 1 do
      if Value.to_bool (col_get c i) then begin
        idx.(!n) <- i;
        incr n
      end
    done);
  gather t (Array.sub idx 0 !n)

let append_col name c t =
  if col_length c <> t.nrows then
    invalid_arg "Relation.append_col: length mismatch";
  { schema = t.schema @ [ name ]; nrows = t.nrows;
    cols = Array.append t.cols [| c |] }

(* ------------------------------------------------------------------ *)
(* Row hashing infrastructure                                          *)
(* ------------------------------------------------------------------ *)

(* Row-keyed hash table over boxed rows; the generic fallback identity
   for distinct/difference and the µ seen-set when a column isn't
   int-like. *)
module Row_tbl = Hashtbl.Make (struct
  type t = Value.t array

  let equal a b =
    Array.length a = Array.length b
    &&
    let rec go i =
      i < 0 || (Value.equal_key_cell a.(i) b.(i) && go (i - 1))
    in
    go (Array.length a - 1)

  let hash r = Array.fold_left (fun h c -> (h * 31) + Value.hash_cell c) 17 r
end)

(* Open-addressing set of int pairs backed by off-heap [Bigarray]
   vectors — the µ/µ∆ seen-set and the distinct kernel key their rows
   as packed ints ({!int_rep}), so membership costs two unboxed probes
   and the GC never scans the table. *)
module Pair_set = struct
  type ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

  type t = {
    mutable k1 : ba;
    mutable k2 : ba;
    mutable mask : int;
    mutable size : int;
  }

  let absent = min_int

  let make_ba n : ba =
    let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
    Bigarray.Array1.fill a absent;
    a

  let create hint =
    let cap = ref 16 in
    while !cap < hint * 2 do
      cap := !cap * 2
    done;
    { k1 = make_ba !cap; k2 = make_ba !cap; mask = !cap - 1; size = 0 }

  let slot_hash a b = ((a * 0x9e3779b1) lxor (b * 0x85ebca6b)) land max_int

  let rec insert_raw t a b =
    let i = ref (slot_hash a b land t.mask) in
    let res = ref (-1) in
    while !res < 0 do
      let x = Bigarray.Array1.unsafe_get t.k1 !i in
      if x = absent then begin
        Bigarray.Array1.unsafe_set t.k1 !i a;
        Bigarray.Array1.unsafe_set t.k2 !i b;
        t.size <- t.size + 1;
        res := 1
      end
      else if x = a && Bigarray.Array1.unsafe_get t.k2 !i = b then res := 0
      else i := (!i + 1) land t.mask
    done;
    if !res = 1 && t.size * 3 > (t.mask + 1) * 2 then grow t;
    !res = 1

  and grow t =
    let old1 = t.k1 and old2 = t.k2 in
    let cap = (t.mask + 1) * 2 in
    t.k1 <- make_ba cap;
    t.k2 <- make_ba cap;
    t.mask <- cap - 1;
    t.size <- 0;
    for i = 0 to Bigarray.Array1.dim old1 - 1 do
      let a = Bigarray.Array1.unsafe_get old1 i in
      if a <> absent then
        ignore (insert_raw t a (Bigarray.Array1.unsafe_get old2 i))
    done

  (* [add t a b] inserts and reports whether the pair was fresh. *)
  let add t a b = insert_raw t a b
end

(* ------------------------------------------------------------------ *)
(* Distinct / union / difference                                       *)
(* ------------------------------------------------------------------ *)

let distinct_generic t =
  (* Bucket candidate rows by combined cell hash; verify with cell
     equality. Works for any column mix without boxing typed cells. *)
  let w = Array.length t.cols in
  let tbl : (int, int list ref) Hashtbl.t = Hashtbl.create (t.nrows * 2) in
  let idx = Array.make t.nrows 0 in
  let n = ref 0 in
  let cols = t.cols in
  for i = 0 to t.nrows - 1 do
    let h = ref 17 in
    for j = 0 to w - 1 do
      h := (!h * 31) + col_hash (Array.unsafe_get cols j) i
    done;
    let eq_row k =
      let rec go j = j >= w || (col_eq cols.(j) i cols.(j) k && go (j + 1)) in
      go 0
    in
    match Hashtbl.find_opt tbl !h with
    | Some bucket ->
      if not (List.exists eq_row !bucket) then begin
        bucket := i :: !bucket;
        idx.(!n) <- i;
        incr n
      end
    | None ->
      Hashtbl.add tbl !h (ref [ i ]);
      idx.(!n) <- i;
      incr n
  done;
  if !n = t.nrows then t else gather t (Array.sub idx 0 !n)

(* Allocation-free quadratic scan — the curriculum-style workloads run
   thousands of per-binding fixpoints over relations of a handful of
   rows, where a hash table (let alone an off-heap Pair_set) per call
   costs more than the scan. *)
let distinct_small t =
  let w = Array.length t.cols in
  let cols = t.cols in
  let eq_rows i k =
    let rec go j = j >= w || (col_eq cols.(j) i cols.(j) k && go (j + 1)) in
    go 0
  in
  let idx = Array.make t.nrows 0 in
  let n = ref 0 in
  for i = 0 to t.nrows - 1 do
    let dup = ref false in
    for k = 0 to !n - 1 do
      if (not !dup) && eq_rows i idx.(k) then dup := true
    done;
    if not !dup then begin
      idx.(!n) <- i;
      incr n
    end
  done;
  if !n = t.nrows then t else gather t (Array.sub idx 0 !n)

let distinct t =
  batch t.nrows;
  if t.nrows <= 1 then t
  else if t.nrows <= 24 then distinct_small t
  else
    let w = Array.length t.cols in
    let reps = Array.map int_rep t.cols in
    let all_int = Array.for_all Option.is_some reps in
    if all_int && w >= 1 && w <= 2 then begin
      let set = Pair_set.create t.nrows in
      let idx = Array.make t.nrows 0 in
      let n = ref 0 in
      let keep i =
        idx.(!n) <- i;
        incr n
      in
      (* monomorphic loops for the dominant column shapes; the closure
         pair from [int_rep] covers the rest *)
      (match t.cols with
      | [| Ints a; Nodes b |] ->
        for i = 0 to t.nrows - 1 do
          if
            Pair_set.add set
              (Array.unsafe_get a i lsl 2)
              (((Array.unsafe_get b i).Node.id lsl 2) lor 1)
          then keep i
        done
      | [| Ints a; Ints b |] ->
        for i = 0 to t.nrows - 1 do
          if
            Pair_set.add set
              (Array.unsafe_get a i lsl 2)
              (Array.unsafe_get b i lsl 2)
          then keep i
        done
      | _ ->
        let r1 = Option.get reps.(0) in
        let r2 = if w = 2 then Option.get reps.(1) else fun _ -> 0 in
        for i = 0 to t.nrows - 1 do
          if Pair_set.add set (r1 i) (r2 i) then keep i
        done);
      if !n = t.nrows then t else gather t (Array.sub idx 0 !n)
    end
    else distinct_generic t

let permute_to target t =
  if t.schema = target then t
  else project (List.map (fun c -> (c, c)) target) t

let union a b =
  if List.sort compare a.schema <> List.sort compare b.schema then
    invalid_arg "Relation.union: incompatible schemas";
  let b' = permute_to a.schema b in
  if a.nrows = 0 then { b' with schema = a.schema }
  else if b'.nrows = 0 then a
  else begin
    batch (a.nrows + b'.nrows);
    { schema = a.schema; nrows = a.nrows + b'.nrows;
      cols = Array.map2 concat_col a.cols b'.cols }
  end

let difference a b =
  if List.sort compare a.schema <> List.sort compare b.schema then
    invalid_arg "Relation.difference: incompatible schemas";
  let b' = permute_to a.schema b in
  (* Bag difference is cold (aggregate default branches only): the boxed
     path keeps the EXCEPT ALL multiplicity semantics simple. *)
  batch (a.nrows + b'.nrows);
  boxed_rows (a.nrows + b'.nrows);
  let counts = Row_tbl.create 64 in
  for i = 0 to b'.nrows - 1 do
    let r = row b' i in
    Row_tbl.replace counts r
      (1 + Option.value ~default:0 (Row_tbl.find_opt counts r))
  done;
  let idx = Array.make a.nrows 0 in
  let n = ref 0 in
  for i = 0 to a.nrows - 1 do
    let r = row a i in
    match Row_tbl.find_opt counts r with
    | Some k when k > 0 -> Row_tbl.replace counts r (k - 1)
    | _ ->
      idx.(!n) <- i;
      incr n
  done;
  gather a (Array.sub idx 0 !n)

(* ------------------------------------------------------------------ *)
(* Joins                                                               *)
(* ------------------------------------------------------------------ *)

let rename_clashes left_schema right_schema =
  List.map
    (fun c -> if List.mem c left_schema then c ^ "'" else c)
    right_schema

(* Join index: combined key hash → candidate row indices (collisions
   filtered at probe time by cell equality). Cached weakly per physical
   relation: memoized loop-invariant subplans re-enter [equi_join] with
   the physically same relation every fixpoint round. *)
module Index_cache = Ephemeron.K1.Make (struct
  type nonrec t = t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type join_index = (int, int list ref) Hashtbl.t

let join_indexes : (int array * join_index) list Index_cache.t =
  Index_cache.create 64

let key_hash cols (kidx : int array) i =
  let h = ref 17 in
  for j = 0 to Array.length kidx - 1 do
    h := (!h * 31) + col_hash (Array.unsafe_get cols (Array.unsafe_get kidx j)) i
  done;
  !h

let build_index (kidx : int array) rel : join_index =
  let tbl = Hashtbl.create (rel.nrows * 2) in
  for i = rel.nrows - 1 downto 0 do
    let h = key_hash rel.cols kidx i in
    match Hashtbl.find_opt tbl h with
    | Some bucket -> bucket := i :: !bucket
    | None -> Hashtbl.add tbl h (ref [ i ])
  done;
  tbl

let index_for kidx rel =
  let existing =
    match Index_cache.find_opt join_indexes rel with
    | Some l -> l
    | None -> []
  in
  match List.find_opt (fun (i, _) -> i = kidx) existing with
  | Some (_, tbl) -> tbl
  | None ->
    let tbl = build_index kidx rel in
    Index_cache.replace join_indexes rel ((kidx, tbl) :: existing);
    tbl

module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 64 0; n = 0 }

  let push b v =
    if b.n = Array.length b.a then begin
      let a' = Array.make (b.n * 2) 0 in
      Array.blit b.a 0 a' 0 b.n;
      b.a <- a'
    end;
    b.a.(b.n) <- v;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end

(* Per-key-pair equality, precompiled per join call: the probe loop
   runs one monomorphic closure per key instead of re-dispatching on
   the column variants for every candidate. *)
let key_eq_fns l lidx r ridx =
  Array.init (Array.length lidx) (fun k ->
      let ca = l.cols.(lidx.(k)) and cb = r.cols.(ridx.(k)) in
      match (ca, cb) with
      | (Ints x, Ints y) ->
        fun i j -> Array.unsafe_get x i = Array.unsafe_get y j
      | (Nodes x, Nodes y) ->
        fun i j ->
          (Array.unsafe_get x i).Node.id = (Array.unsafe_get y j).Node.id
      | (Strs x, Strs y) ->
        fun i j -> String.equal (Array.unsafe_get x i) (Array.unsafe_get y j)
      | (Bools x, Bools y) ->
        fun i j -> Bool.equal (Array.unsafe_get x i) (Array.unsafe_get y j)
      | _ -> fun i j -> col_eq ca i cb j)

(* A fixpoint round joins a big (often loop-invariant) build side
   against a handful of delta rows: below this probe-side size the
   hash index loses to a direct scan with the precompiled equality
   closures (no per-row key hashing, no bucket allocation). *)
let small_probe = 16

let equi_join ?extra keys l r =
  batch (l.nrows + r.nrows);
  let lidx =
    Array.of_list (List.map (fun (lc, _) -> column_index l lc) keys)
  in
  let ridx =
    Array.of_list (List.map (fun (_, rc) -> column_index r rc) keys)
  in
  let nk = Array.length lidx in
  let eqs = key_eq_fns l lidx r ridx in
  let lsel = Ibuf.create () and rsel = Ibuf.create () in
  let pair i j =
    let rec keys_eq k =
      k >= nk || ((Array.unsafe_get eqs k) i j && keys_eq (k + 1))
    in
    if keys_eq 0 && match extra with None -> true | Some f -> f i j
    then begin
      Ibuf.push lsel i;
      Ibuf.push rsel j
    end
  in
  if r.nrows <= small_probe then
    for i = 0 to l.nrows - 1 do
      for j = 0 to r.nrows - 1 do
        pair i j
      done
    done
  else if l.nrows > 4 * r.nrows then begin
    (* Index the bigger (typically loop-invariant, physically stable —
       so [index_for]'s ephemeron cache amortizes the build) left side
       and probe with the handful of right rows. Pairs come out probe-
       major; re-sort below keeps the left-major output order of the
       other branches. *)
    let tbl = index_for lidx l in
    for j = 0 to r.nrows - 1 do
      let h = key_hash r.cols ridx j in
      match Hashtbl.find_opt tbl h with
      | None -> ()
      | Some bucket -> List.iter (fun i -> pair i j) !bucket
    done
  end
  else begin
    let tbl = index_for ridx r in
    for i = 0 to l.nrows - 1 do
      let h = key_hash l.cols lidx i in
      match Hashtbl.find_opt tbl h with
      | None -> ()
      | Some bucket -> List.iter (fun j -> pair i j) !bucket
    done
  end;
  let la = Ibuf.to_array lsel and ra = Ibuf.to_array rsel in
  (* left-major, then right-ascending — identical for every branch *)
  let () =
    let n = Array.length la in
    let perm = Array.init n (fun k -> k) in
    let sorted = ref true in
    for k = 1 to n - 1 do
      if
        la.(k - 1) > la.(k)
        || (la.(k - 1) = la.(k) && ra.(k - 1) > ra.(k))
      then sorted := false
    done;
    if not !sorted then begin
      Array.sort
        (fun x y ->
          let c = Int.compare la.(x) la.(y) in
          if c <> 0 then c else Int.compare ra.(x) ra.(y))
        perm;
      let la' = Array.map (fun k -> la.(k)) perm
      and ra' = Array.map (fun k -> ra.(k)) perm in
      Array.blit la' 0 la 0 n;
      Array.blit ra' 0 ra 0 n
    end
  in
  let out_schema = l.schema @ rename_clashes l.schema r.schema in
  { schema = out_schema; nrows = Array.length la;
    cols =
      Array.append
        (Array.map (fun c -> gather_col c la) l.cols)
        (Array.map (fun c -> gather_col c ra) r.cols) }

(* Existential join: keep each left row at most once, as soon as one
   matching right row is found — never materializes the match pairs.
   The δ∘π∘⋈ pattern the compiler emits for predicates like
   [$doc//x[a = $y/b]] reduces to this. *)
let semi_join ?extra keys l r =
  batch (l.nrows + r.nrows);
  let lidx =
    Array.of_list (List.map (fun (lc, _) -> column_index l lc) keys)
  in
  let ridx =
    Array.of_list (List.map (fun (_, rc) -> column_index r rc) keys)
  in
  let nk = Array.length lidx in
  let eqs = key_eq_fns l lidx r ridx in
  let lsel = Ibuf.create () in
  let matches i j =
    let rec keys_eq k =
      k >= nk || ((Array.unsafe_get eqs k) i j && keys_eq (k + 1))
    in
    keys_eq 0 && match extra with None -> true | Some f -> f i j
  in
  if r.nrows <= small_probe then
    for i = 0 to l.nrows - 1 do
      let rec scan j =
        if j < r.nrows then
          if matches i j then Ibuf.push lsel i else scan (j + 1)
      in
      scan 0
    done
  else begin
    let tbl = index_for ridx r in
    for i = 0 to l.nrows - 1 do
      let h = key_hash l.cols lidx i in
      match Hashtbl.find_opt tbl h with
      | None -> ()
      | Some bucket ->
        if List.exists (fun j -> matches i j) !bucket then Ibuf.push lsel i
    done
  end;
  gather l (Ibuf.to_array lsel)

let cross l r =
  batch (l.nrows * r.nrows);
  let n = l.nrows * r.nrows in
  let la = Array.make n 0 and ra = Array.make n 0 in
  let k = ref 0 in
  for i = 0 to l.nrows - 1 do
    for j = 0 to r.nrows - 1 do
      la.(!k) <- i;
      ra.(!k) <- j;
      incr k
    done
  done;
  let out_schema = l.schema @ rename_clashes l.schema r.schema in
  { schema = out_schema; nrows = n;
    cols =
      Array.append
        (Array.map (fun c -> gather_col c la) l.cols)
        (Array.map (fun c -> gather_col c ra) r.cols) }

(* ------------------------------------------------------------------ *)
(* Grouping, numbering, ordering                                       *)
(* ------------------------------------------------------------------ *)

let group_count ~partition ~result t =
  batch t.nrows;
  match partition with
  | None -> of_cols [ result ] [| Ints [| t.nrows |] |]
  | Some part ->
    let c = col t part in
    (* first-appearance order of groups, like the row engine *)
    let tbl : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
    let reps = Ibuf.create () in
    let counts = Ibuf.create () in
    for i = 0 to t.nrows - 1 do
      let h = col_hash c i in
      let bucket =
        match Hashtbl.find_opt tbl h with
        | Some b -> b
        | None ->
          let b = ref [] in
          Hashtbl.add tbl h b;
          b
      in
      match List.find_opt (fun g -> col_eq c i c reps.Ibuf.a.(g)) !bucket with
      | Some g -> counts.Ibuf.a.(g) <- counts.Ibuf.a.(g) + 1
      | None ->
        let g = reps.Ibuf.n in
        bucket := g :: !bucket;
        Ibuf.push reps i;
        Ibuf.push counts 1
    done;
    let rep_idx = Ibuf.to_array reps in
    of_cols [ part; result ]
      [| gather_col c rep_idx; Ints (Ibuf.to_array counts) |]

let sort_idx cols_to_sort t =
  let cmp i j =
    let rec go = function
      | [] -> 0
      | c :: rest ->
        let o = col_order c i c j in
        if o <> 0 then o else go rest
    in
    go cols_to_sort
  in
  (* index tiebreak = stability, like the row engine's stable_sort *)
  let idx = Array.init t.nrows (fun i -> i) in
  Array.sort (fun i j -> let o = cmp i j in if o <> 0 then o else Int.compare i j) idx;
  idx

let number ~order ~partition ~result t =
  batch t.nrows;
  let keys = (match partition with None -> [] | Some p -> [ p ]) @ order in
  let cs = List.map (col t) keys in
  let idx = sort_idx cs t in
  let sorted = gather t idx in
  let ranks = Array.make t.nrows 0 in
  (match partition with
  | None -> for i = 0 to t.nrows - 1 do ranks.(i) <- i + 1 done
  | Some p ->
    let pc = col sorted p in
    let rank = ref 0 in
    for i = 0 to t.nrows - 1 do
      if i > 0 && col_eq pc i pc (i - 1) then incr rank else rank := 1;
      ranks.(i) <- !rank
    done);
  append_col result (Ints ranks) sorted

let tag_counter = ref 0

let tag ~result t =
  batch t.nrows;
  let tags =
    Array.init t.nrows (fun _ ->
        incr tag_counter;
        !tag_counter)
  in
  append_col result (Ints tags) t

let pp ppf t =
  Format.fprintf ppf "@[<v>%s@," (String.concat " | " t.schema);
  List.iter
    (fun r ->
      Format.fprintf ppf "%s@,"
        (String.concat " | "
           (Array.to_list (Array.map (Format.asprintf "%a" Value.pp) r))))
    (rows t);
  Format.fprintf ppf "@]"
