type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;  (* toward MRU *)
  mutable next : ('k, 'v) node option;  (* toward LRU *)
}

type ('k, 'v) t = {
  table : ('k, ('k, 'v) node) Hashtbl.t;
  cap : int;
  lock : Mutex.t;
  mutable first : ('k, 'v) node option;  (* MRU *)
  mutable last : ('k, 'v) node option;  (* LRU *)
  mutable hits : int;
  mutable misses : int;
}

let create ?(capacity = 64) () =
  { table = Hashtbl.create 16; cap = max 1 capacity;
    lock = Mutex.create (); first = None; last = None; hits = 0; misses = 0 }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* list surgery — call only with the lock held *)

let unlink t node =
  (match node.prev with
  | Some p -> p.next <- node.next
  | None -> t.first <- node.next);
  (match node.next with
  | Some n -> n.prev <- node.prev
  | None -> t.last <- node.prev);
  node.prev <- None;
  node.next <- None

let push_front t node =
  node.next <- t.first;
  node.prev <- None;
  (match t.first with Some f -> f.prev <- Some node | None -> ());
  t.first <- Some node;
  if t.last = None then t.last <- Some node

let find t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some node ->
        t.hits <- t.hits + 1;
        unlink t node;
        push_front t node;
        Some node.value
      | None ->
        t.misses <- t.misses + 1;
        None)

let find_valid ?(usable = fun _ -> true) t key ~valid =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some node when valid node.value && usable node.value ->
        t.hits <- t.hits + 1;
        unlink t node;
        push_front t node;
        Some node.value
      | Some node when valid node.value ->
        (* live but not for this caller: keep it for the others *)
        t.misses <- t.misses + 1;
        None
      | Some node ->
        (* present but stale: evict and account a miss, so staleness is
           indistinguishable from absence to callers and stats alike *)
        t.misses <- t.misses + 1;
        unlink t node;
        Hashtbl.remove t.table key;
        None
      | None ->
        t.misses <- t.misses + 1;
        None)

let put t key value =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some node ->
        node.value <- value;
        unlink t node;
        push_front t node
      | None ->
        if Hashtbl.length t.table >= t.cap then begin
          match t.last with
          | Some lru ->
            unlink t lru;
            Hashtbl.remove t.table lru.key
          | None -> ()
        end;
        let node = { key; value; prev = None; next = None } in
        Hashtbl.replace t.table key node;
        push_front t node)

let replace t key value =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some node -> node.value <- value
      | None -> ())

let remove t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some node ->
        unlink t node;
        Hashtbl.remove t.table key
      | None -> ())

let length t = with_lock t (fun () -> Hashtbl.length t.table)
let capacity t = t.cap
let hits t = with_lock t (fun () -> t.hits)
let misses t = with_lock t (fun () -> t.misses)

let keys t =
  with_lock t (fun () ->
      let rec go acc = function
        | None -> List.rev acc
        | Some node -> go (node.key :: acc) node.next
      in
      go [] t.first)

(* A snapshot with no recency or counter effects — enumeration for
   maintenance sweeps must not masquerade as cache traffic. *)
let bindings ?(p = fun _ -> true) t =
  with_lock t (fun () ->
      let rec go acc = function
        | None -> List.rev acc
        | Some node when p node.value ->
          go ((node.key, node.value) :: acc) node.next
        | Some node -> go acc node.next
      in
      go [] t.first)
