(** The two IFP evaluation algorithms of Figure 3.

    Both compute the inflationary fixed point of a payload function
    [body : node()* -> node()*] from a seed sequence:

    - {!naive} re-feeds the whole accumulated result into [body] on
      every round (Figure 3(a));
    - {!delta} feeds only the yet-unseen nodes
      [∆ ← body(∆) except res] (Figure 3(b)) — sound exactly when the
      payload is distributive (Theorem 3.2).

    Every payload invocation is recorded in the supplied {!Stats.t}
    (nodes fed, nodes produced, accumulated size), which yields the
    "Total # of Nodes Fed Back" and "Recursion Depth" columns of
    Table 2. *)

exception Diverged of int
(** Raised when the iteration count exceeds [max_iterations]; an IFP
    whose body invokes node constructors may be undefined
    (Definition 2.1). *)

(** [include_seed] selects the iteration's starting point. The paper is
    not fully consistent here: Definition 2.1 and Figure 3 start from
    [res ← erec(eseed)] (the default, [false]), whereas the iteration
    table of Example 2.4 traces the algorithms from [res ← eseed]
    (i.e. the seed itself belongs to the result; pass [true] to
    reproduce that table). Both conventions agree on which payloads make
    Naïve and Delta coincide. *)

val naive :
  ?max_iterations:int ->
  ?include_seed:bool ->
  stats:Stats.t ->
  body:(Fixq_xdm.Item.seq -> Fixq_xdm.Item.seq) ->
  seed:Fixq_xdm.Item.seq ->
  unit ->
  Fixq_xdm.Item.seq

val delta :
  ?max_iterations:int ->
  ?include_seed:bool ->
  stats:Stats.t ->
  body:(Fixq_xdm.Item.seq -> Fixq_xdm.Item.seq) ->
  seed:Fixq_xdm.Item.seq ->
  unit ->
  Fixq_xdm.Item.seq
