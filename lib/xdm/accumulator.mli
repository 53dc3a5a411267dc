(** Incremental fixpoint accumulator.

    Carries the accumulated result of an inflationary fixpoint across
    rounds as a set of sorted, pairwise-disjoint runs (one per round's
    delta) plus a growable bitmap over node ids for O(1) membership.
    Node ids are preorder integers from a single global counter
    ({!Node.id}), so document order is id order and one bitmap covers
    all documents. The bitmap starts at the lowest id absorbed and
    grows downward when a lower one arrives, so its size follows the
    id range the fixpoint touches, not how many ids the process has
    ever minted.

    Per round, {!absorb} costs O(|out| + |Δ| log |Δ|) — independent of
    the accumulated size |res| — replacing the
    [Item.except]/[Item.union] pair that re-sorted the whole result
    every round. The full doc-ordered result is only materialized at
    the end, in O(|res| log #rounds): by {!final_seq} straight into the
    item list, or by {!to_seq}/{!to_nodes} through a bottom-up merge of
    the runs that is kept for the next call. *)

type t

val create : unit -> t

(** Number of distinct nodes absorbed so far. O(1) — this is the
    inflationary termination test. *)
val size : t -> int

(** [mem t n] — has [n] been absorbed? O(1) bitmap test. *)
val mem : t -> Node.t -> bool

(** [absorb t ~who items] filters [items] against the bitmap, adds the
    previously-unseen nodes as a new sorted run, and returns
    [(fresh, fresh_count, produced)]: the new nodes in document order
    (the next round's Δ; when [items] is ordered, its own item boxes),
    how many there are, and [List.length items]. Raises
    [Atom.Type_error] on atoms, with the same message as
    [Item.as_node_seq who]. *)
val absorb : t -> who:string -> Item.seq -> Item.seq * int * int

(** [merge_runs runs] — bottom-up pairwise linear merge of sorted,
    pairwise-disjoint node runs into one sorted array. The merge kernel
    behind {!to_nodes}, exposed for external run stores (the columnar
    µ/µ∆ loop keeps its per-round deltas as sorted node vectors and
    assembles the result here). *)
val merge_runs : Node.t array list -> Node.t array

(** Accumulated result in document order. Cached; absorbing afterwards
    invalidates the cache. Naive reads it every round. *)
val to_seq : t -> Item.seq

(** [final_seq t] is [to_seq t] for a caller that reads the result
    once, as Delta does at its end: a k-way merge of the runs into the
    list, with no array of the result's size and nothing cached. *)
val final_seq : t -> Item.seq
