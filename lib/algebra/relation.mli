(** In-memory relations with named columns, stored column-wise.

    The algebra evaluates over flat 1NF tables; XQuery item sequences
    are encoded as [iter|item] tables ([pos] is dropped: the fixpoint
    operators and the distributivity machinery work modulo duplicates
    and order — Definition 3.1 — and the engine re-establishes document
    order when materializing results).

    Storage is columnar: each column is a typed vector ([int array] for
    iter/tag/rank/int cells, [Node.t array] for node columns — node
    identity is the dense preorder id — plus string/bool vectors and a
    boxed [Value.t array] fallback for mixed columns). Operators are
    batch kernels: projection selects column pointers, select/join/
    distinct compute row-index vectors and gather survivors, and the
    hot distinct path hashes packed-int row keys in an off-heap
    {!Pair_set} instead of boxing rows. *)

type col =
  | Ints of int array
  | Nodes of Fixq_xdm.Node.t array
  | Bools of bool array
  | Strs of string array
  | Vals of Value.t array

type t

val schema : t -> string list
val cardinal : t -> int

(** The column vectors, in schema order. Treat as read-only: columns
    are shared across relations by projection/union. *)
val cols : t -> col array

(** Column by name; raises [Invalid_argument] for unknown columns. *)
val col : t -> string -> col

val col_get : col -> int -> Value.t

(** Cell equality used by the batch kernels — aligned with
    {!Value.hash_cell}, {!Value.equal_key_cell} and {!Value.compare}
    (nodes by identity for hash/eq, document order for order). *)
val col_eq : col -> int -> col -> int -> bool

(** Packed-int representation of int-like cells (ints, node ids,
    bools — 2 kind bits keep them distinct), or [None] for columns that
    need boxed comparison. *)
val int_rep : col -> (int -> int) option

(** [of_cols schema cols]: columns must have equal lengths. *)
val of_cols : string list -> col array -> t

(** Build a typed column from boxed cells (uniform kinds get a typed
    vector, mixed columns stay boxed). *)
val col_of_values : Value.t array -> col

(** [create schema rows] builds typed columns from boxed rows; every
    row must have [List.length schema] cells. *)
val create : string list -> Value.t array list -> t

val empty : string list -> t

(** Boxed row materialization (cold paths and tests). *)
val rows : t -> Value.t array list

val row : t -> int -> Value.t array
val column_index : t -> string -> int
val get : t -> Value.t array -> string -> Value.t

(** [gather t idx] keeps rows [idx] in order (indices may repeat). *)
val gather : t -> int array -> t

(** Concatenate relations sharing [schema] (column-wise append). *)
val concat_many : string list -> t list -> t

(** [project renames t] keeps/renames columns: [(new_name, old_name)]
    pairs, in order. O(width): shares column vectors. *)
val project : (string * string) list -> t -> t

(** Keep rows whose named column is effectively true (fast path for
    [Bools] columns). *)
val select_bool : string -> t -> t

(** Append a column vector (length must match). *)
val append_col : string -> col -> t -> t

(** Hash table keyed by boxed rows under the same cell-wise equivalence
    as {!row_key} — the generic fallback seen-set for the µ/µ∆ loops. *)
module Row_tbl : Hashtbl.S with type key = Value.t array

(** Open-addressing set of packed int pairs over off-heap [Bigarray]
    storage — the µ/µ∆ seen-set fast path. *)
module Pair_set : sig
  type t

  val create : int -> t

  (** [add t a b] inserts the pair and reports whether it was fresh. *)
  val add : t -> int -> int -> bool
end

(** Set-style distinct over all columns. *)
val distinct : t -> t

(** Union of compatible relations (bag union; schemas must have equal
    column lists, possibly reordered — the right side is permuted). *)
val union : t -> t -> t

(** Bag difference on all columns ([EXCEPT ALL]: each right occurrence
    cancels one matching left occurrence). *)
val difference : t -> t -> t

(** [equi_join keys l r] joins on [(lcol, rcol)] equality pairs; all
    columns of both sides are kept, right-side columns that clash with
    left names get a ["'"] suffix. [extra] is an additional predicate
    over (left row index, right row index). *)
val equi_join :
  ?extra:(int -> int -> bool) -> (string * string) list -> t -> t -> t

(** [semi_join keys l r] keeps the left rows with at least one matching
    right row (each at most once, in left order) — the target of the
    δ∘π∘⋈ existential-filter rewrite. *)
val semi_join :
  ?extra:(int -> int -> bool) -> (string * string) list -> t -> t -> t

val cross : t -> t -> t

(** [group_count ~partition ~result t]: number of rows per value of the
    [partition] column (the whole table when [partition] is [None]).
    Result schema: partition column (if any) followed by [result]. *)
val group_count : partition:string option -> result:string -> t -> t

(** [number ~order ~partition ~result t] appends 1-based ranks ordered
    by the [order] columns within each [partition] group. *)
val number :
  order:string list -> partition:string option -> result:string -> t -> t

(** Append a column of unique integer tags. *)
val tag : result:string -> t -> t

val pp : Format.formatter -> t -> unit
