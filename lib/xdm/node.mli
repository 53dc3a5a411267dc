(** Ordered, unranked trees with node identity — the backbone of the
    XQuery Data Model.

    Every node carries an integer {!id} from one process-wide counter,
    and within a tree [id] increases in preorder (element, then its
    attributes, then its children); across trees, ids order trees by
    when they were last numbered. As a consequence, document order is
    exactly the order of [id] and [fs:distinct-doc-order] is "sort by
    id, drop duplicates" (see {!Item.ddo}).

    Node construction from a {!spec} and {!deep_copy} both allocate
    fresh ids, matching XQuery's semantics of node constructors (new
    node identities on every evaluation). A registered document is
    edited in place ({!splice}) and then {!renumber}ed. *)

type kind = Document | Element | Attribute | Text | Comment | Pi

(** One step of a value-index key path: [child::name], [@name] or
    [text()]. *)
type key_step = Key_child of string | Key_attr of string | Key_text

type t = private {
  mutable id : int;  (** preorder position; changes only in {!renumber} *)
  kind : kind;
  name : Qname.t option;
  mutable content : string;  (** text / comment / PI / attribute value *)
  mutable parent : t option;
  mutable children : t array;
  mutable attributes : t array;
  mutable doc : doc option;  (** set on tree roots only *)
}

(** Per-document bookkeeping attached to the root node. *)
and doc = {
  mutable uri : string option;
  mutable id_attribute_names : string list;
      (** attribute names declared of type ID (via DTD or
          {!register_id_attribute}) *)
  mutable id_index : (string, t) Hashtbl.t option;  (** built lazily *)
  mutable idref_attribute_names : string list;
      (** attribute names declared of type IDREF/IDREFS *)
  mutable idref_index : (string, t list) Hashtbl.t option;
  mutable name_index : name_index;  (** built lazily, see {!elements_by_name} *)
  mutable value_index :
    ((string * key_step list) * (string, t array) Hashtbl.t) list;
      (** built lazily, see {!elements_by_value} *)
}

(** Lazy element-name index over a tree, same pattern as [id_index]. *)
and name_index =
  | Ni_unbuilt
  | Ni_disabled
      (** preorder id validation failed during the build walk; callers
          must fall back to walking the tree *)
  | Ni_built of { buckets : (string, t array) Hashtbl.t; stale : string list }
      (** element name (as written) → elements with that name, in
          document order. The buckets of the [stale] names are out of
          date (a {!splice} added or removed elements of that name);
          the next lookup of any of them rebuilds them all in one walk
          and publishes a fresh table. *)

(** Construction specification: a value describing a tree to build. *)
type spec =
  | E of string * (string * string) list * spec list
      (** element: name, attributes, children *)
  | T of string  (** text node *)
  | C of string  (** comment node *)
  | P of string * string  (** processing instruction: target, content *)

(** [of_spec ?uri ?id_attrs spec] builds a document node rooted over
    [spec], assigning fresh preorder ids. [id_attrs] lists attribute
    names of DTD type ID (for [fn:id]). *)
val of_spec : ?uri:string -> ?id_attrs:string list -> spec -> t

(** Build a parentless element (XQuery element constructor). Every
    child is deep-copied with fresh ids (a document contributes its
    children); the given nodes are left untouched. *)
val element : string -> attrs:(string * string) list -> t list -> t

val text : string -> t
val comment : string -> t
val attribute : string -> string -> t

(** XQuery [document { … }] constructor: a fresh document node whose
    children are copies of the given nodes. *)
val document : t list -> t

(** [deep_copy n] clones the subtree rooted at [n] with fresh ids and no
    parent. *)
val deep_copy : t -> t

(** Root of the tree containing [n] (follows parent links). *)
val root : t -> t

val parent : t -> t option
val children : t -> t list
val attributes : t -> t list

(** XPath string value: text content for text/comment/PI/attribute
    nodes, concatenation of descendant text for elements/documents. *)
val string_value : t -> string

(** Name as written ([Qname.to_string]), or [""] for unnamed kinds. *)
val name : t -> string

val local_name : t -> string

(** [register_id_attribute root name] declares attribute [name] to be of
    DTD type ID for the whole tree under [root] and invalidates the ID
    index. *)
val register_id_attribute : t -> string -> unit

(** [lookup_id root v] finds the element that carries an ID-typed
    attribute with value [v], if any (the index is built on first use). *)
val lookup_id : t -> string -> t option

(** [id_tokens s]: the ID tokens of an [fn:id] argument or an IDREFS
    value, the pieces of [s] between spaces, newlines and tabs, without
    empty ones. A token that is all of [s] is [s] itself. *)
val id_tokens : string -> string list

(** Declare attribute [name] of DTD type IDREF/IDREFS for the whole
    tree. *)
val register_idref_attribute : t -> string -> unit

(** [lookup_idref root v] returns the IDREF-typed attribute nodes whose
    (whitespace-tokenized) value mentions ID [v], in document order. *)
val lookup_idref : t -> string -> t list

val set_uri : t -> string -> unit
val uri : t -> string option

(** Document order = id order. *)
val compare_doc_order : t -> t -> int

val equal : t -> t -> bool

(** Nodes allocated so far in this process; useful to bound work in
    tests. *)
val allocated : unit -> int

(** Number of nodes in the subtree (excluding attributes), as used by
    size accounting in benchmarks. *)
val subtree_size : t -> int

(** Preorder iteration over the subtree, attributes excluded. *)
val iter_subtree : (t -> unit) -> t -> unit

(** Largest id inside the subtree of [n], attributes included. With
    preorder ids the subtree is exactly the id interval
    [[n.id, subtree_max_id n]] — the containment test behind
    index-assisted descendant steps. *)
val subtree_max_id : t -> int

(** [elements_by_name n name] — all elements named [name] (as written)
    in the tree containing [n], in document order, answered from a lazy
    per-document index. [None] when the index is disabled (preorder id
    validation failed); callers must then walk the tree. *)
val elements_by_name : t -> string -> t array option

(** [elements_by_value n name path] — for the elements named [name] in
    the tree containing [n], a table from each string value that [path]
    reaches from an element (attribute values, string values of the
    reached elements and text nodes) to the elements reaching it, in
    document order and without duplicates. Built on first use from the
    name index and kept on the document until the next {!renumber}, or
    until a {!splice} adds or removes an element named [name] or edits
    under one that [path] reads down to.
    [None] when the name index is disabled, or when the document already
    holds 16 tables for other keys; callers then scan. *)
val elements_by_value : t -> string -> key_step list -> (string, t array) Hashtbl.t option

(** [renumber root] gives every node of the tree under [root]
    (attributes included) a fresh preorder id from one block reserved
    from the counter, so the tree's ids are contiguous and [n.id -
    root.id] is [n]'s preorder rank. It also resets the root's lazy id,
    IDREF, name and value indexes. One walk over the tree, which allocates
    nothing. The tree moves to the end of the cross-document order. *)
val renumber : t -> unit

(** [ensure_contiguous root] {!renumber}s [root] unless its ids already
    are one contiguous preorder block from [root.id] — as a fresh parse
    or {!of_spec} leaves them, in which case ids stay as they are. *)
val ensure_contiguous : t -> unit

(** One structural edit for {!splice}. Template nodes ([Pa_replace],
    [Pa_insert_*]) are deep-copied at their splice point. *)
type patch_action =
  | Pa_delete
  | Pa_replace of t
  | Pa_insert_child of t * [ `First | `Last ]
  | Pa_insert_sibling of t * [ `Before | `After ]
  | Pa_set_text of string
      (** replace the element's content with a single text node *)

(** [splice root ~target action] edits the tree under [root] in place
    at [target] (a node of that tree; it must have a parent unless the
    action is [Pa_insert_child] or [Pa_set_text]), then {!renumber}s
    [root]. Untouched nodes keep their physical identity. Returns
    [(inserted, removed, at)]: the roots of the inserted subtrees, in
    document order, the roots of the removed subtrees, which are
    detached (no parent) but keep their old ids, and the node whose
    children changed ([target] for [Pa_insert_child] and
    [Pa_set_text], its parent otherwise). Allocates the inserted
    copies and the edited children array, nothing proportional to the
    document.

    Unlike {!renumber}, it keeps what the edit cannot reach: the name
    index marks only the element names of the inserted and removed
    subtrees stale, and a value table is dropped only when its name is
    stale or an element of its name on the edit point's ancestor spine
    reads the edit through its key path. The id and IDREF indexes are
    dropped. *)
val splice : t -> target:t -> patch_action -> t list * t list * t

val pp : Format.formatter -> t -> unit
