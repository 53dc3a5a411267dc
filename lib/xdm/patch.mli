(** Structured document edits ([patch-doc]) over {!Node.t} trees.

    An {!op} addresses an element with a tiny path language
    ([/site/people[2]/person] — child element steps with 1-based
    positional selectors) and inserts, deletes or replaces a subtree
    there, or rewrites its text content.

    {!apply} runs every check that can fail first, then edits the tree
    in place ({!Node.splice}): a refused patch leaves the document
    untouched, and a successful one allocates what it inserts, not a
    copy of the document. Nodes outside the edit keep their identity;
    their ids change, but id order stays document order. The {!delta}
    is what incremental-maintenance consumers need: the inserted and
    removed subtrees, the removed ids, and the node whose children
    changed (where differential re-evaluation restarts). *)

exception Patch_error of string

(** Where an [Insert] lands relative to the addressed element:
    [First]/[Last] are child positions inside it, [Before]/[After] are
    sibling positions next to it. *)
type position = First | Last | Before | After

type op =
  | Insert of { path : string; position : position; xml : string }
  | Delete of { path : string }
  | Replace of { path : string; xml : string }
  | Set_text of { path : string; text : string }

type delta = {
  inserted : Node.t list;
      (** roots of inserted subtrees, in document order *)
  inserted_count : int;  (** total inserted nodes, attributes included *)
  removed : Node.t list;
      (** roots of the removed subtrees, detached from the document *)
  deleted : int list;
      (** ids of every removed node (attributes included); detached
          nodes keep them, and no surviving node reuses one *)
  edit_parent : Node.t;
      (** the node whose children changed — the maintenance frontier
          anchor: the target for [into-*] inserts and [set-text], its
          parent otherwise *)
}

(** [None] if the string is not one of [into], [into-first],
    [into-last], [first], [last], [before], [after]. *)
val position_of_string : string -> position option

val string_of_position : position -> string
val path_of_op : op -> string

(** [parse_path "/a/b[2]"] → [[("a", 1); ("b", 2)]]. Raises
    {!Patch_error} on malformed paths. *)
val parse_path : string -> (string * int) list

(** Resolve a path from a (document or element) root to the addressed
    element, scanning children arrays without allocating per sibling.
    Raises {!Patch_error} when a step matches nothing. *)
val resolve : Node.t -> string -> Node.t

(** [apply root op] — edit the tree under [root] in place. Raises
    {!Patch_error}, before any mutation, on bad paths/XML and on edits
    that would damage the document shape (deleting the root element,
    giving it siblings). *)
val apply : Node.t -> op -> delta
