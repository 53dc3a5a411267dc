(** The semiring-parameterized inflationary fixpoint kernel.

    Mirrors the shape of the engines' Delta loop (Figure 3(b)) but
    threads an {!Annot_acc}: an accumulator whose [absorb] merges
    incoming annotations with ⊕ ({!Semiring.improve}) and returns only
    the entries whose annotation strictly improved — the next round's
    frontier. Per-round cost stays O(|out| + |∆|), the PR-3 property.

    The kernel is closure-parameterized (per-node body application,
    weight lookup, stats recording) so it depends only on [fixq_xdm];
    the interpreter and the algebra engine's fallback both drive it.
    [accumulate by bool] does not come here: it is the plain loop
    ({!Fixq_lang.Fixpoint}) with every result node marked. *)

module Item = Fixq_xdm.Item
module Node = Fixq_xdm.Node
module Atom = Fixq_xdm.Atom

exception Diverged of int

let default_max = 1_000_000

(* ------------------------------------------------------------------ *)
(* Annotated accumulator                                               *)
(* ------------------------------------------------------------------ *)

module Annot_acc = struct
  type t = {
    kind : Semiring.kind;
    anns : (int, Semiring.ann) Hashtbl.t;  (* node id → current ⊕-total *)
    nodes : (int, Node.t) Hashtbl.t;
    mutable size : int;
  }

  let create kind =
    { kind; anns = Hashtbl.create 256; nodes = Hashtbl.create 256; size = 0 }

  let size t = t.size

  (* Merge one annotated node; return its refeed increment if the
     stored annotation strictly improved. *)
  let merge t (n : Node.t) ann =
    match Hashtbl.find_opt t.anns n.Node.id with
    | None ->
      Hashtbl.replace t.anns n.Node.id ann;
      Hashtbl.replace t.nodes n.Node.id n;
      t.size <- t.size + 1;
      Some ann
    | Some old -> (
      match Semiring.improve t.kind ~old ~incoming:ann with
      | None -> None
      | Some (updated, increment) ->
        Hashtbl.replace t.anns n.Node.id updated;
        Some increment)

  (* Absorb a round's annotated output. Returns the strictly improved
     entries sorted by node id (document order for stored trees), so
     the next round's frontier is deterministic. A node improved by
     several sources in the same round yields one entry whose increment
     is the ⊕ of the individual increments — keeping an arbitrary one
     (e.g. an early improvement later superseded) would propagate a
     stale annotation downstream. *)
  let absorb t entries =
    let fresh = Hashtbl.create 16 in
    List.iter
      (fun ((n : Node.t), ann) ->
        match merge t n ann with
        | None -> ()
        | Some inc -> (
          match Hashtbl.find_opt fresh n.Node.id with
          | None -> Hashtbl.replace fresh n.Node.id (n, inc)
          | Some (_, prev) ->
            Hashtbl.replace fresh n.Node.id (n, Semiring.plus t.kind prev inc)))
      entries;
    Hashtbl.fold (fun _ e acc -> e :: acc) fresh []
    |> List.sort (fun ((a : Node.t), _) ((b : Node.t), _) ->
           compare a.Node.id b.Node.id)

  let entries t =
    Hashtbl.fold (fun id n acc -> (n, Hashtbl.find t.anns id) :: acc) t.nodes []
    |> List.sort (fun ((a : Node.t), _) ((b : Node.t), _) ->
           compare a.Node.id b.Node.id)

  let to_seq t = List.map (fun (n, _) -> Item.N n) (entries t)
  let find t (n : Node.t) = Hashtbl.find_opt t.anns n.Node.id
end

let node_of ~who = function
  | Item.N n -> n
  | Item.A a ->
    Atom.type_error "%s: expected a sequence of nodes, got atom %s" who
      (Atom.to_string a)

(* ------------------------------------------------------------------ *)
(* Annotated kernel: per-node feeding with ⊕-merge and ∆-refeed         *)
(* ------------------------------------------------------------------ *)

(* Non-boolean kinds feed the body one frontier node at a time so each
   produced node's annotation can be ⊗-extended from its source:
   candidate = src_ann ⊗ weight(produced). The frontier for the next
   round is exactly the set of strict improvements — for [Min] this is
   Bellman-Ford over the derivation graph; for [Count] the increments
   propagate path multiplicities; for [Why] the newly discovered
   witnesses. Seeds carry {!Semiring.seed_ann} but (as in the paper's
   loop) only enter the result if the body derives them. *)
let run_annotated ?(max_iterations = default_max) ~kind ~record ~step ~weight
    ~seed () =
  let acc = Annot_acc.create kind in
  let weight_of =
    match weight with
    | Some w when Semiring.takes_weight kind -> fun n -> Some (w n)
    | _ -> fun _ -> None
  in
  let feed (src, src_ann) =
    let out = step src in
    List.map
      (fun it ->
        let n = node_of ~who:"accumulate" it in
        (n, Semiring.extend kind src_ann (weight_of n)))
      out
  in
  let frontier =
    List.map (fun it ->
        let n = node_of ~who:"accumulate" it in
        (n, Semiring.seed_ann kind n))
      seed
  in
  let rec loop frontier i =
    if i > max_iterations then raise (Diverged i);
    let fed = List.length frontier in
    let out = List.concat_map feed frontier in
    let fresh = Annot_acc.absorb acc out in
    record ~fed ~produced:(List.length out)
      ~result_size:(Annot_acc.size acc);
    if fresh = [] then acc else loop fresh (i + 1)
  in
  loop frontier 1
