(** Atomic values of the XQuery Data Model subset used by [fixq].

    The language is LiXQuery-class: the atomic types are integers,
    doubles, strings and booleans. Untyped atomics produced by node
    atomization are represented as strings and promoted on demand
    ({!to_number}). *)

type t =
  | Int of int
  | Dbl of float
  | Str of string
  | Bool of bool

(** Total order used by [fn:distinct-values] and value comparisons across
    numeric types; numeric values compare numerically regardless of
    representation. Raises [Type_error] when comparing incomparable
    atoms (e.g. a string with a number), mirroring XPath's dynamic
    errors. *)
val compare_value : t -> t -> int

exception Type_error of string

val type_error : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** [equal_value a b] is value equality with numeric promotion. *)
val equal_value : t -> t -> bool

(** Numeric promotion: ["42"] and [Int 42] both yield [42.0]; raises
    [Type_error] for non-numeric strings or booleans. *)
val to_number : t -> float

(** Integer view; raises [Type_error] if not an integer (or an integral
    double/string). *)
val to_int : t -> int

(** XPath string value of the atom. Doubles print like XPath ([1] not
    [1.]). *)
val to_string : t -> string

(** Effective boolean value of a single atom. *)
val to_bool : t -> bool

val pp : Format.formatter -> t -> unit
