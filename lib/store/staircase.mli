(** Staircase-join–style axis evaluation over the pre/size/level
    encoding (Grust, van Keulen, Teubner — VLDB 2003).

    [step enc axis test pres] takes a duplicate-free, ascending list of
    context [pre] ranks and returns the matching axis step result as an
    ascending, duplicate-free list of [pre] ranks — i.e. the result is
    already in distinct document order, which is what makes the
    staircase join a single sequential scan:

    - {e pruning}: context nodes covered by another context node
      contribute nothing new on [descendant]/[ancestor] axes and are
      skipped;
    - {e skipping}: on [descendant], the scan jumps over subtrees that
      cannot contain results.

    Attributes are not part of the pre/size/level table; the
    [attribute] axis answers through the back-pointers and is returned
    as nodes. *)

val step :
  Encoding.t -> Fixq_xdm.Axis.t -> Fixq_xdm.Axis.test -> int list -> int list

(** Convenience: run a step on nodes and return nodes, going through the
    encoded tree (used by tests to cross-check against
    {!Fixq_xdm.Axis.step}). *)
val step_nodes :
  Encoding.t ->
  Fixq_xdm.Axis.t ->
  Fixq_xdm.Axis.test ->
  Fixq_xdm.Node.t list ->
  Fixq_xdm.Node.t list
