type t = {
  mutable bitmap : Bytes.t;
  mutable base : int;  (* byte index of [bitmap.[0]] in id space *)
  mutable runs : Node.t array list;  (* newest first; sorted, disjoint *)
  mutable size : int;
  mutable cache : Node.t array option;
}

let create () =
  { bitmap = Bytes.empty; base = 0; runs = []; size = 0; cache = None }

let size t = t.size

(* Make id byte [b] addressable. The bitmap covers only the ids this
   fixpoint touches, from the lowest one absorbed: growing (up or
   down) at least doubles it, so growth stays amortised O(1). *)
let ensure t b =
  let len = Bytes.length t.bitmap in
  if len = 0 then begin
    t.base <- b;
    t.bitmap <- Bytes.make 64 '\000'
  end
  else if b < t.base || b >= t.base + len then begin
    let top = t.base + len in
    let n = max (2 * len) (max top (b + 1) - min t.base b) in
    let base = if b < t.base then max 0 (top - n) else t.base in
    let bm = Bytes.make n '\000' in
    Bytes.blit t.bitmap 0 bm (t.base - base) len;
    t.bitmap <- bm;
    t.base <- base
  end

let mem_id t id =
  incr Counters.bitmap_tests;
  let byte = (id lsr 3) - t.base in
  let hit =
    byte >= 0
    && byte < Bytes.length t.bitmap
    && Char.code (Bytes.unsafe_get t.bitmap byte) land (1 lsl (id land 7)) <> 0
  in
  if hit then incr Counters.bitmap_hits;
  hit

let mem t (n : Node.t) = mem_id t n.Node.id

let set_id t id =
  ensure t (id lsr 3);
  let byte = (id lsr 3) - t.base in
  Bytes.unsafe_set t.bitmap byte
    (Char.chr
       (Char.code (Bytes.unsafe_get t.bitmap byte) lor (1 lsl (id land 7))))

let absorb t ~who items =
  let produced = ref 0 in
  let fresh_rev = ref [] in
  let fresh_count = ref 0 in
  List.iter
    (fun it ->
      incr produced;
      match it with
      | Item.N n ->
        if not (mem_id t n.Node.id) then begin
          set_id t n.Node.id;
          fresh_rev := n :: !fresh_rev;
          incr fresh_count
        end
      | Item.A a ->
        Atom.type_error "%s: expected a sequence of nodes, got atom %s" who
          (Atom.to_string a))
    items;
  let fresh = Item.sort_uniq_nodes (List.rev !fresh_rev) in
  (match fresh with
  | [] -> ()
  | _ ->
    t.runs <- Array.of_list fresh :: t.runs;
    t.size <- t.size + !fresh_count;
    t.cache <- None);
  (List.map Item.node fresh, !fresh_count, !produced)

(* Runs are pairwise disjoint (the bitmap blocks re-insertion), so the
   final result is a pure merge with no deduplication. Merging
   bottom-up in adjacent pairs keeps the total cost O(|res| log #runs)
   and is paid once per fixpoint, not once per round. *)
let merge_two a b =
  incr Counters.merges;
  let la = Array.length a and lb = Array.length b in
  Counters.merged_items := !Counters.merged_items + la + lb;
  let out = Array.make (la + lb) a.(0) in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < la && !j < lb do
    if a.(!i).Node.id < b.(!j).Node.id then begin
      out.(!k) <- a.(!i);
      incr i
    end
    else begin
      out.(!k) <- b.(!j);
      incr j
    end;
    incr k
  done;
  while !i < la do
    out.(!k) <- a.(!i);
    incr i;
    incr k
  done;
  while !j < lb do
    out.(!k) <- b.(!j);
    incr j;
    incr k
  done;
  out

let merge_runs runs =
  let runs = List.filter (fun a -> Array.length a > 0) runs in
  let rec pairs = function
    | [] -> []
    | [ r ] -> [ r ]
    | a :: b :: rest -> merge_two a b :: pairs rest
  in
  let rec reduce = function
    | [] -> [||]
    | [ r ] -> r
    | rs -> reduce (pairs rs)
  in
  reduce runs

let merged t =
  match t.cache with
  | Some a -> a
  | None ->
    let a = merge_runs t.runs in
    t.cache <- Some a;
    t.runs <- (if Array.length a = 0 then [] else [ a ]);
    a

let to_nodes t = Array.to_list (merged t)
let to_seq t = List.map Item.node (to_nodes t)
