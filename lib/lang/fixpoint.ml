module Item = Fixq_xdm.Item
module Accumulator = Fixq_xdm.Accumulator

exception Diverged of int

let default_max = 1_000_000

(* Both loops thread an {!Fixq_xdm.Accumulator} instead of re-sorting
   the accumulated result every round: [absorb] filters the body's
   output against a bitmap (the old [Item.except]), appends the fresh
   nodes as a sorted run (the old [Item.union]) and counts sizes along
   the way, so the per-round cost depends on |out| + |Δ| only — and the
   stats recording below costs no extra traversals. *)

(* Figure 3(a): res ← erec(eseed); do res ← erec(res) ∪ res while res
   grows. Growth is detected on node-identity sets, which for node
   sequences coincides with the set-equality test of Definition 2.1.
   With [include_seed] the iteration starts from res ← eseed instead
   (Example 2.4's convention). *)
let naive ?(max_iterations = default_max) ?(include_seed = false) ~stats ~body
    ~seed () =
  Stats.start_run stats;
  let acc = Accumulator.create () in
  if include_seed then ignore (Accumulator.absorb acc ~who:"fs:ddo" seed)
  else begin
    let seed_n = List.length seed in
    let first = body seed in
    let (_, _, first_n) = Accumulator.absorb acc ~who:"fs:ddo" first in
    Stats.record_iteration stats ~fed:seed_n ~produced:first_n
      ~result_size:(Accumulator.size acc)
  end;
  let rec loop i =
    if i > max_iterations then raise (Diverged i);
    let res_n = Accumulator.size acc in
    let res = Accumulator.to_seq acc in
    let out = body res in
    let (_, fresh_n, out_n) = Accumulator.absorb acc ~who:"union" out in
    Stats.record_iteration stats ~fed:res_n ~produced:out_n
      ~result_size:(Accumulator.size acc);
    if fresh_n = 0 then res else loop (i + 1)
  in
  loop 1

(* Figure 3(b): the payload sees only the newly discovered nodes. *)
let delta ?(max_iterations = default_max) ?(include_seed = false) ~stats ~body
    ~seed () =
  Stats.start_run stats;
  let acc = Accumulator.create () in
  let start =
    if include_seed then
      let (fresh, fresh_n, _) = Accumulator.absorb acc ~who:"fs:ddo" seed in
      (fresh, fresh_n)
    else begin
      let seed_n = List.length seed in
      let first = body seed in
      let (fresh, fresh_n, first_n) =
        Accumulator.absorb acc ~who:"fs:ddo" first
      in
      Stats.record_iteration stats ~fed:seed_n ~produced:first_n
        ~result_size:(Accumulator.size acc);
      (fresh, fresh_n)
    end
  in
  let rec loop (delta, delta_n) i =
    if i > max_iterations then raise (Diverged i);
    let out = body delta in
    let (fresh, fresh_n, out_n) = Accumulator.absorb acc ~who:"except" out in
    Stats.record_iteration stats ~fed:delta_n ~produced:out_n
      ~result_size:(Accumulator.size acc);
    if fresh_n = 0 then Accumulator.to_seq acc
    else loop (fresh, fresh_n) (i + 1)
  in
  loop start 1
