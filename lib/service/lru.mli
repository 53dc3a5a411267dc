(** A thread-safe LRU cache, the shared substrate of the service's
    prepared-query and result caches.

    Classic hash-table-plus-doubly-linked-list: {!find} and {!put} are
    O(1); inserting into a full cache evicts the least recently used
    entry. Every operation takes an internal mutex, so one cache can be
    shared by all worker threads. Hit/miss counters are maintained for
    the [stats] protocol op. *)

type ('k, 'v) t

(** [create ~capacity ()] — [capacity] (default 64, clamped to ≥ 1) is
    the maximum number of live entries. *)
val create : ?capacity:int -> unit -> ('k, 'v) t

(** Lookup; promotes the entry to most-recently-used and counts a hit
    or a miss. *)
val find : ('k, 'v) t -> 'k -> 'v option

(** [find_valid t k ~valid] — like {!find}, but an entry failing [valid]
    is evicted and counted as a miss: staleness behaves exactly like
    absence, both to the caller and in the hit/miss statistics. A valid
    entry failing [usable] (default: none fails) stays cached, but this
    lookup answers [None] and counts a miss. *)
val find_valid :
  ?usable:('v -> bool) -> ('k, 'v) t -> 'k -> valid:('v -> bool) -> 'v option

(** Insert or replace; promotes to most-recently-used, evicting the LRU
    entry if the cache was full. Does not touch the hit/miss
    counters. *)
val put : ('k, 'v) t -> 'k -> 'v -> unit

type 'v change = Keep | Set of 'v | Remove

(** [sweep t f] visits every entry, MRU first, and keeps it, swaps its
    value or removes it as [f key value] says, in one pass with no
    recency or counter effects and no key lookups. [f] runs with [t]'s
    lock held, so it must not call back into [t]. *)
val sweep : ('k, 'v) t -> ('k -> 'v -> 'v change) -> unit

val length : ('k, 'v) t -> int
val capacity : ('k, 'v) t -> int
val hits : ('k, 'v) t -> int
val misses : ('k, 'v) t -> int

(** Keys from most to least recently used (a debugging/stats aid). *)
val keys : ('k, 'v) t -> 'k list

(** Key/value snapshot of the entries whose value satisfies [p]
    (default: all), MRU first, with {e no} recency or counter effects —
    for maintenance sweeps over live entries. *)
val bindings : ?p:('v -> bool) -> ('k, 'v) t -> ('k * 'v) list
