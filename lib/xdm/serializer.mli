(** XML serialization of {!Node.t} trees and item sequences.

    One walk writes every form: plain XML, or XML JSON-escaped as it is
    written ({!seq_to_json}) — the form a result takes on the wire. *)

(** [to_string ?indent n] serializes the subtree under [n].
    [indent] (default [false]) pretty-prints with two-space
    indentation; text nodes suppress indentation of their element. *)
val to_string : ?indent:bool -> Node.t -> string

val to_buffer : ?indent:bool -> Buffer.t -> Node.t -> unit

(** Serialize a whole item sequence: nodes as XML, atoms via their
    string value, separated by spaces as in XQuery serialization. *)
val seq_to_string : ?indent:bool -> Item.seq -> string

(** [seq_to_json s] is the JSON string literal, quotes included, of
    [seq_to_string s], written in one pass: markup and JSON escaping
    are fused and clean runs are copied whole. *)
val seq_to_json : Item.seq -> string

(** Append [s] JSON-escaped (no quotes): quotes, backslashes and bytes
    below 0x20 are rewritten, everything else is copied. *)
val json_escape_to : Buffer.t -> string -> unit

(** Escape a string for use as XML character data. *)
val escape_text : string -> string

(** Escape a string for use inside a double-quoted attribute. *)
val escape_attr : string -> string
