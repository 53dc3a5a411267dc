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

(* The unseen nodes of [items], in their order, as the same item
   boxes; each is marked seen. *)
let[@tail_mod_cons] rec keep_unseen t who = function
  | [] -> []
  | (Item.N n as it) :: rest ->
    if mem_id t n.Node.id then keep_unseen t who rest
    else begin
      set_id t n.Node.id;
      t.size <- t.size + 1;
      it :: keep_unseen t who rest
    end
  | Item.A a :: _ ->
    Atom.type_error "%s: expected a sequence of nodes, got atom %s" who
      (Atom.to_string a)

(* A body's output is usually in document order already (a path or
   [id()] result), and so are its unseen nodes: [Item.ddo_as] finds
   that in one scan and hands them back as they are, boxes and all. *)
let absorb t ~who items =
  let before = t.size in
  let fresh = Item.ddo_as who (keep_unseen t who items) in
  let fresh_count = t.size - before in
  (match fresh with
  | Item.N first :: _ ->
    let run = Array.make fresh_count first in
    List.iteri (fun i -> function Item.N n -> run.(i) <- n | Item.A _ -> ()) fresh;
    t.runs <- run :: t.runs;
    t.cache <- None
  | _ -> ());
  (fresh, fresh_count, List.length items)

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

let box a =
  let rec go i acc = if i < 0 then acc else go (i - 1) (Item.N a.(i) :: acc) in
  go (Array.length a - 1) []

let to_seq t = box (merged t)

(* Delta reads its result once, at the end: the runs are merged from
   their ends straight into the item list, through a max-heap of run
   cursors keyed by each run's last unmerged id (a drained run's key,
   -1, sinks below the others). That is O(|res| log #runs), and the
   only blocks besides the items are three arrays of #runs entries. A
   cached merge is the one run left. *)
let final_seq t =
  match t.runs with
  | [] -> []
  | [ r ] -> box r
  | runs ->
    incr Counters.merges;
    Counters.merged_items := !Counters.merged_items + t.size;
    let runs = Array.of_list runs in
    let k = Array.length runs in
    let next = Array.map (fun r -> Array.length r - 1) runs in
    let heap = Array.init k Fun.id in
    let key h =
      let r = heap.(h) in
      if next.(r) < 0 then -1 else runs.(r).(next.(r)).Node.id
    in
    let rec sift i =
      let l = (2 * i) + 1 in
      let c = if l + 1 < k && key (l + 1) > key l then l + 1 else l in
      if l < k && key c > key i then begin
        let r = heap.(i) in
        heap.(i) <- heap.(c);
        heap.(c) <- r;
        sift c
      end
    in
    for i = (k / 2) - 1 downto 0 do sift i done;
    let rec drain n acc =
      if n = 0 then acc
      else begin
        let r = heap.(0) in
        let acc = Item.N runs.(r).(next.(r)) :: acc in
        next.(r) <- next.(r) - 1;
        sift 0;
        drain (n - 1) acc
      end
    in
    drain t.size []
