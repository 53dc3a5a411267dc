(** Relational XML encoding: pre/size/level tables.

    Following the Pathfinder / MonetDB/XQuery storage model (Grust et
    al., "XQuery on SQL Hosts", VLDB 2004; "Staircase Join", VLDB 2003),
    a tree is shredded into an array indexed by preorder rank [pre]
    where each row carries

    - [size]: number of nodes in the subtree (excluding the node),
    - [level]: depth below the root,
    - [kind], [name], [value]: node payload,
    - [node]: back-pointer to the {!Fixq_xdm.Node.t} for result
      materialization.

    All axis work in the algebra engine runs over this encoding: the
    region of [descendant(v)] is the pre range (pre(v), pre(v)+size(v)],
    ancestors satisfy pre(a) < pre(v) ≤ pre(a)+size(a), etc. *)

type row = {
  pre : int;
  size : int;
  level : int;
  kind : Fixq_xdm.Node.kind;
  name : string;
  value : string;
  node : Fixq_xdm.Node.t;
}

type t

(** Shred the tree containing the given node (the whole tree, from its
    root). Attributes are kept out of the pre/size/level table and
    reached through the original nodes, as in Pathfinder's attribute
    side tables. *)
val of_tree : Fixq_xdm.Node.t -> t

(** Encoding row of a node; the node must belong to the encoded tree. *)
val row_of_node : t -> Fixq_xdm.Node.t -> row

val row : t -> int -> row

(** Number of rows (nodes). *)
val size : t -> int

(** A process-wide cache of document encodings: a document with a URI
    keeps one entry, which a patch (renumbering the tree) replaces on
    the next use. A tree without a URI (built by a query) is encoded
    afresh on every call; a caller that revisits one keeps its own
    table, so the encoding dies with the caller. *)
val of_tree_cached : Fixq_xdm.Node.t -> t

(** A memo of axis-step results over this tree, keyed by the caller.
    It lives and dies with the encoding, so a patch's renumbering
    retires it with the stale encoding. *)
val steps : t -> (int, Fixq_xdm.Node.t list) Hashtbl.t

(** Entries in the step memos of all cached document encodings. *)
val cached_step_entries : unit -> int
