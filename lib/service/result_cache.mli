(** The result cache: serialized query answers keyed by what a [run]
    request alone determines — [(hash of the query text, requested
    engine/mode/stratified)] — and guarded by the {e per-document
    generation footprint} recorded when the answer was computed.

    Because the key needs no prepared query, a server looks results up
    {e before} preparing: a valid entry that the request's admission
    cannot change is answered with no parse, no checks and no plan.

    Instead of baking the global registry generation into the key — and
    so losing every cached answer whenever {e any} document loads — each
    entry remembers which documents its execution actually read and at
    which per-doc generation ({!Fixq_xdm.Doc_registry.track}). A lookup
    revalidates that footprint: loading an unrelated document leaves the
    entry live, while touching a footprint document evicts it (counted
    as a miss, exactly as if it had never been cached). An entry stores
    the serialized result (JSON-escaped, as it goes on the wire), what the response echoes (the resolved
    engine and mode, the Table-2 instrumentation: nodes fed back,
    recursion depth) and the admission facts it was computed under, so
    a hit can answer with the same statistics the original execution
    reported and a server can tell when admission must run first.

    This is the only store of cached-result state: an entry whose query
    is IVM-eligible also carries its {!Fixq_ivm.Ivm.state}, so eviction
    drops the bytes and the state
    together, and [patch-doc] and snapshots read the state from the
    live entries. *)

type key = {
  hash : string;  (** {!Prepared.hash_source} of the query text *)
  config : string;
      (** requested [engine:mode:stratified], e.g. ["interp:pinned:false"] *)
}

type entry = {
  escaped : string;
      (** the serialized result as a JSON string literal, quotes
          included: the exact bytes of a response's ["result"] value,
          so a hit is written with no per-byte pass. The entry keeps
          no other copy of the result. *)
  engine : string;  (** engine that ran *)
  mode : string;  (** fixpoint mode that ran, after resolving [pinned] *)
  used_delta : bool option;
  nodes_fed : int;
  depth : int;
      (** most rounds any fixpoint site needed: a fresh run capped at
          [depth] iterations cannot diverge, so the answer serves any
          request whose [max_iterations] is at least this *)
  wall_ms : float;  (** cost of the original execution *)
  footprint : (string * int) list;
      (** sorted [(uri, doc_generation)] pairs read by the execution *)
  semiring : string option;
      (** [accumulate by] kind of the run, if the query was annotated *)
  annotations : (string * string) list;
      (** [(serialized node, annotation)] pairs for annotated queries,
          replayed verbatim on a cache hit *)
  may_diverge : bool;
      (** the divergence check said may-diverge: an unbudgeted request
          must be refused (FQ040/FQ043), not answered *)
  over_envelope : bool;
      (** the predicted cost exceeded the governor's [max_cost]: an
          unbudgeted request is refused (FQ055), a budgeted one
          down-budgeted *)
  ivm : Fixq_ivm.Ivm.state option;
      (** what [patch-doc] reads to keep [escaped] across an edit that
          cannot reach it, for an IVM-eligible fixpoint *)
}

type t

val create : ?capacity:int -> unit -> t

(** The key of a [run] request, from its text and requested options. *)
val key : query:string -> engine:string -> mode:string -> stratified:bool -> key

(** [find t key ~current ~max_iterations] — [current uri] must return
    the live per-doc generation. A footprint mismatch evicts the entry
    and counts a miss. An entry needing more than [max_iterations]
    rounds (its [depth]) stays cached but answers [None] and counts a miss: a fresh
    run under that cap may diverge, so the request must recompute. *)
val find :
  t -> key -> current:(string -> int) -> max_iterations:int -> entry option

(** [within ~max_iterations e] — [e]'s depth fits under the cap. *)
val within : max_iterations:int -> entry -> bool

val put : t -> key -> entry -> unit

(** [sweep t ~p f] keeps, swaps or removes each live entry satisfying
    [p] as [f key entry] says ({!Lru.sweep}), without touching its
    recency or the counters — maintenance is not a use. [f] must not
    call back into [t]. *)
val sweep : t -> p:(entry -> bool) -> (key -> entry -> entry Lru.change) -> unit

(** Live entries whose value satisfies [p] (default: all), MRU first,
    without touching hit/miss counters or recency — snapshots and
    stats. *)
val bindings : ?p:(entry -> bool) -> t -> (key * entry) list

val length : t -> int
val hits : t -> int
val misses : t -> int
