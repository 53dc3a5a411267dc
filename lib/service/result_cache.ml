type key = { hash : string; config : string }

type entry = {
  serialized : string;
  engine : string;
  mode : string;
  used_delta : bool option;
  nodes_fed : int;
  depth : int;
  rounds : int;
  wall_ms : float;
  footprint : (string * int) list;
  semiring : string option;
  annotations : (string * string) list;
  may_diverge : bool;
  over_envelope : bool;
  ivm : Fixq_ivm.Ivm.state option;
}

type t = (string, entry) Lru.t

let key ~query ~engine ~mode ~stratified =
  { hash = Prepared.hash_source query;
    config = Printf.sprintf "%s:%s:%b" engine mode stratified }

let render { hash; config } = hash ^ "|" ^ config

let parse rendered =
  match String.index_opt rendered '|' with
  | Some i ->
    { hash = String.sub rendered 0 i;
      config =
        String.sub rendered (i + 1) (String.length rendered - i - 1) }
  | None -> { hash = rendered; config = "" }

let fresh ~current entry =
  List.for_all (fun (uri, gen) -> current uri = gen) entry.footprint

let within ~max_iterations entry = entry.rounds <= max_iterations

let create ?(capacity = 256) () : t = Lru.create ~capacity ()

let find t key ~current ~max_iterations =
  Lru.find_valid t (render key) ~valid:(fresh ~current)
    ~usable:(within ~max_iterations)

let put t key entry = Lru.put t (render key) entry
let replace t key entry = Lru.replace t (render key) entry
let remove t key = Lru.remove t (render key)

let bindings ?p t =
  List.map (fun (k, entry) -> (parse k, entry)) (Lru.bindings ?p t)

let length = Lru.length
let hits = Lru.hits
let misses = Lru.misses
