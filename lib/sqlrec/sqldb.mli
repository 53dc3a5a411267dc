(** A miniature relational database for the SQL:1999 [WITH RECURSIVE]
    comparison (Section 2 of the paper): named tables of string/int
    cells. *)

type value = S of string | I of int

type table = { columns : string list; rows : value list list }

type t

val create : unit -> t
val add_table : t -> string -> table -> unit
val find_table : t -> string -> table option

val value_equal : value -> value -> bool
val pp_value : Format.formatter -> value -> unit
val pp_table : Format.formatter -> table -> unit

(** Distinct rows (set semantics). *)
val distinct : table -> table

(** Row-set equality modulo duplicates and order. *)
val set_equal : table -> table -> bool

(** Bag difference (removes every occurrence present in the second). *)
val difference : table -> table -> table
