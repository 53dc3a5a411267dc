type key = { hash : string; config : string }

type maintenance = { patches : int; delta : int; maintenance_rounds : int }

type entry = {
  escaped : string;
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
  maintenance : maintenance option;
}

type t = (key, entry) Lru.t

let key ~query ~engine ~mode ~stratified =
  { hash = Prepared.hash_source query;
    config = Printf.sprintf "%s:%s:%b" engine mode stratified }

let fresh ~current entry =
  List.for_all (fun (uri, gen) -> current uri = gen) entry.footprint

let within ~max_iterations entry = entry.rounds <= max_iterations

let create ?(capacity = 256) () : t = Lru.create ~capacity ()

let find t key ~current ~max_iterations =
  Lru.find_valid t key ~valid:(fresh ~current)
    ~usable:(within ~max_iterations)

let put t key entry = Lru.put t key entry
let sweep t ~p f = Lru.sweep t (fun k entry -> if p entry then f k entry else Lru.Keep)
let bindings ?p t = Lru.bindings ?p t

let length = Lru.length
let hits = Lru.hits
let misses = Lru.misses
