(** Minimal JSON for the [fixq serve] wire protocol.

    The toolchain this repo builds against carries no JSON library, and
    the protocol needs nothing exotic: newline-delimited objects of
    strings, numbers, booleans and shallow nesting. Hand-rolled here —
    one value type, a recursive-descent parser, a printer with
    deterministic field order (the order of the [Obj] list, so
    responses are stable for the cram tests). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string
      (** JSON text printed verbatim, such as a string literal escaped
          once and kept; the maker vouches that it is valid JSON.
          {!parse} never returns one. *)
  | Raw_buffer of Buffer.t
      (** {!Raw} over a buffer's contents, which stay in place until the
          value is printed: a response viewing its connection's buffer. *)
  | Spliced of string * string * t
      (** [Spliced (line, key, value)]: the object that {!to_string}
          printed on [line], with [key: value] spliced in as its last
          member; a [line] not framed by braces prints unchanged.
          {!parse} never returns one; {!member} does not look in. *)

exception Parse_error of string

(** Parse one JSON value; trailing whitespace allowed, anything else
    raises {!Parse_error}. *)
val parse : string -> t

(** Compact single-line rendering (no newlines — one value per line on
    the wire). Numbers that are integral print without a decimal
    point. *)
val to_string : t -> string

(** [output oc j] writes the bytes of [to_string j] to [oc], the
    [Raw], [Raw_buffer] and [Spliced] pieces straight from their strings. *)
val output : out_channel -> t -> unit

(** [member name j] is the field [name] of object [j], [Null] when
    absent or when [j] is not an object. *)
val member : string -> t -> t

val str_opt : t -> string option
val num_opt : t -> float option
val int_opt : t -> int option
val bool_opt : t -> bool option

val of_int : int -> t
val of_bool_opt : bool option -> t  (** [Null] for [None] *)

val of_string_opt : string option -> t  (** [Null] for [None] *)
