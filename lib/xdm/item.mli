(** XQuery items and item sequences, with the node-sequence operations
    the IFP semantics is built on.

    The paper's set-equality [s=] (Definition 2.1) disregards duplicates
    and order; for node sequences it coincides with equality after
    [fs:distinct-doc-order] ({!ddo}), which this module implements. *)

type t = N of Node.t | A of Atom.t

type seq = t list

val node : Node.t -> t
val atom : Atom.t -> t

(** [as_node_seq who s] checks that [s] contains nodes only and returns
    them; raises [Atom.Type_error] otherwise ([who] names the operation
    for the error message). *)
val as_node_seq : string -> seq -> Node.t list

(** [sort_uniq_nodes ns] is [ns] in document order without duplicate
    identities. Detects already-sorted inputs in one pass (the common
    case for axis-step and fixpoint outputs) and only falls back to a
    full sort otherwise; see {!Counters}. *)
val sort_uniq_nodes : Node.t list -> Node.t list

(** [fs:distinct-doc-order]: sort by document order, remove duplicate
    node identities. Requires a node-only sequence. An input already in
    document order without duplicates is returned as it is, after one
    scan. *)
val ddo : seq -> seq

(** [ddo_as who s] is {!ddo} with [who] naming the operation in the
    type error raised on atoms. *)
val ddo_as : string -> seq -> seq

(** Node-set union / except / intersect ([union], [except], [intersect]
    operators) — results in document order, duplicate-free. *)
val union : seq -> seq -> seq

val except : seq -> seq -> seq
val intersect : seq -> seq -> seq

(** Set-equality [s=] of Definition 2.1: equality modulo duplicates and
    order. Atoms compare by value equality, nodes by identity. *)
val set_equal : seq -> seq -> bool

(** Effective boolean value (XPath semantics): empty is false, a
    sequence whose first item is a node is true, a single atom maps by
    {!Atom.to_bool}; other sequences raise a type error. *)
val effective_boolean : seq -> bool

(** Atomization: nodes become (untyped) string atoms via their string
    value, atoms pass through. *)
val atomize : seq -> Atom.t list

(** String value of a single item. *)
val string_of_item : t -> string

(** [fn:deep-equal] on two sequences: pairwise, atoms by value, nodes by
    structural comparison (name, attributes as sets, children in
    order). *)
val deep_equal : seq -> seq -> bool

val pp : Format.formatter -> t -> unit
val pp_seq : Format.formatter -> seq -> unit
