(** XML serialization of {!Node.t} trees and item sequences.

    One walk writes every form: plain XML, or XML JSON-escaped as it is
    written ({!seq_to_json}) — the form a result takes on the wire. *)

(** [to_string ?indent n] serializes the subtree under [n].
    [indent] (default [false]) pretty-prints with two-space
    indentation; text nodes suppress indentation of their element. *)
val to_string : ?indent:bool -> Node.t -> string

(** Serialize a whole item sequence: nodes as XML, atoms via their
    string value, separated by spaces as in XQuery serialization. *)
val seq_to_string : ?indent:bool -> Item.seq -> string

(** A result leaves as a JSON string literal by one of two entry points,
    which write the same bytes: markup and JSON escaping are fused, and
    a {!Node.t.clean} node's name and content are copied whole.

    [seq_to_json s] is the literal, quotes included, of
    [seq_to_string s], as one exact-size string: the form a result
    cache entry, IVM state and a snapshot keep. *)
val seq_to_json : Item.seq -> string

(** [json_into buf s] empties [buf] and writes the bytes of
    [seq_to_json s] into it: the form a response takes, into a buffer
    its connection owns and reuses, so a warm buffer allocates nothing
    per result. *)
val json_into : Buffer.t -> Item.seq -> unit

(** Append [s] JSON-escaped (no quotes): quotes, backslashes and bytes
    below 0x20 are rewritten, everything else is copied. *)
val json_escape_to : Buffer.t -> string -> unit

(** Escape a string for use as XML character data. *)
val escape_text : string -> string

(** Escape a string for use inside a double-quoted attribute. *)
val escape_attr : string -> string
