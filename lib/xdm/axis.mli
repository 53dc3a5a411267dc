(** XPath axes and node tests over {!Node.t} trees.

    [step axis test n] returns the nodes reachable from context node [n]
    along [axis] that satisfy [test], in {e axis order}: forward axes in
    document order, reverse axes nearest-first (reverse document
    order) — so positional predicates count as XPath prescribes
    ([preceding-sibling::x[1]] is the nearest such sibling). Path
    evaluation re-establishes document order afterwards via
    [fs:ddo]. *)

type t =
  | Child
  | Descendant
  | Descendant_or_self
  | Parent
  | Ancestor
  | Ancestor_or_self
  | Self
  | Following_sibling
  | Preceding_sibling
  | Following
  | Preceding
  | Attribute

type test =
  | Name of string  (** element/attribute name test; ["*"] is wildcard *)
  | Kind_node
  | Kind_text
  | Kind_comment
  | Kind_pi
  | Kind_element of string option
  | Kind_attribute of string option
  | Kind_document

val axis_of_string : string -> t option
val axis_to_string : t -> string

(** Whether the axis is a reverse axis (ancestor, preceding, …). *)
val is_reverse : t -> bool

val matches : t -> test -> Node.t -> bool

(** All nodes along [axis] from [n] (unfiltered), document order. *)
val nodes : t -> Node.t -> Node.t list

(** [step axis test n]: axis step with node test, document order. *)
val step : t -> test -> Node.t -> Node.t list

(** [exists_step axis test n f] is [List.exists f (step axis test n)],
    and [fold_step axis test n f x acc] is [List.fold_left (f x) acc
    (step axis test n)]; a child or attribute step that {!step} answers
    by scanning is scanned in place, without building the list (nor,
    for [fold_step], the closure [f x]). *)
val exists_step : t -> test -> Node.t -> (Node.t -> bool) -> bool

val fold_step : t -> test -> Node.t -> ('b -> 'a -> Node.t -> 'a) -> 'b -> 'a -> 'a

(** [nth axis test n k] is the [k]-th node (1-based, axis order) of
    [step axis test n] for [axis] one of [Child], [Following_sibling] and
    [Preceding_sibling] — the answer of [axis::test\[k\]] — found by
    scanning the children array from [n]'s own slot instead of building
    the whole axis. *)
val nth : t -> test -> Node.t -> int -> Node.t option

(** [value_probe axis name path n ~operand] answers
    [axis::name\[path = v\]] from [n], for [axis] one of [Child] and
    [Descendant], from {!Node.elements_by_value}: the elements whose
    [path] reaches a string value among [operand ()] (the atomized [v]),
    in document order, without duplicates. [operand] is called only if
    the step has at least one candidate. [None] means "scan instead":
    the step has no candidate, the tree is not a document with a usable
    name index, the document holds too many other value tables, or [operand ()] holds a non-string atom. Bumps
    {!Counters.value_probes} when it answers. *)
val value_probe :
  t -> string -> Node.key_step list -> Node.t -> operand:(unit -> Atom.t list) ->
  Node.t list option

val pp_test : Format.formatter -> test -> unit
