(** DataGuide-style structural synopsis of one document.

    A synopsis summarizes a tree by its set of rooted element {e
    paths} (["curriculum/course/prerequisites"]); per path it keeps the
    exact number of elements, per-name attribute counts, text/comment
    child counts and an upper bound on single-node element fan-out,
    plus whole-document totals (nodes, elements, per-name element
    counts, per-name attribute counts). The cost analyzer
    ({!Fixq_cost}) evaluates axis steps over this summary instead of
    the document.

    Synopses are built lazily per registered document (see
    {!Doc_registry.synopsis}) and maintained {e incrementally} under
    [patch-doc] by {!patch}: path counts stay exact across arbitrary
    edit sequences (property-tested); fan-out stays a sound upper
    bound (a delete never shrinks it). *)

type t

(** Path key of the registered root: [""] when the root is a document
    node, the element name when a bare element was registered. Child
    keys are formed with {!child_key}. *)
val root_key : t -> string

val child_key : string -> string -> string
(** [child_key "a/b" "c" = "a/b/c"]; [child_key "" "a" = "a"]. *)

(** Walk the whole tree. [O(|doc|)]. *)
val build : Node.t -> t

(** [patch t delta] updates [t], the synopsis of a document before
    {!Patch.apply} returned [delta], to describe the edited document,
    in place and in time proportional to the edited subtrees, not the
    document. *)
val patch : t -> Patch.delta -> unit

val total_nodes : t -> int
(** Every node: document, elements, attributes, text, comments, PIs. *)

val total_elements : t -> int

val path_count : t -> string -> int
(** Elements at this exact path ([root_key t] → 1 for the root). *)

val child_names : t -> string -> string list
(** Element names ever seen as children of this path (sound
    over-approximation after deletes). *)

val fanout : t -> string -> int
(** Upper bound on the element-children count of any single node at
    this path. *)

val attr_count : t -> string -> string -> int
(** [attr_count t path name] — attributes [name] on elements at
    [path]. *)

val attr_names : t -> string -> string list
val text_count : t -> string -> int
val name_total : t -> string -> int
(** Elements named [name] anywhere in the document. *)

(** Attributes named [name] anywhere in the document. *)

(** All (path, element count) entries that are descendants of the
    given path key (the key itself excluded); [""] lists every element
    path. *)

val fold_paths : (string -> int -> 'a -> 'a) -> t -> 'a -> 'a

val equal_counts : t -> t -> bool
(** Same exact counts everywhere (paths, attributes, texts, totals) —
    fan-out bounds excluded. The property-test oracle: a maintained
    synopsis must [equal_counts] a fresh {!build} of the patched
    tree. *)

val pp : Format.formatter -> t -> unit
