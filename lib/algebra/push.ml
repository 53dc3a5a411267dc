type outcome = {
  distributive : bool;
  blocking : string option;
  steps : string list;
}

type state =
  | Clean  (** the subtree does not involve the recursion input *)
  | Carries of string list  (** ∪ pushed to the subtree root; crossed ops *)
  | Blocked of string * string list

let check ?(simplify = true) ?(stratified = false) ~fix_id plan =
  (* [cuts] holds physical map nodes of enclosing Iterate templates:
     the ∪ reaching the body through the iterated binding is accounted
     for by the big step, so a cut node reads as Clean. δ and ̺ are
     "removed" on the fly when [simplify] is set — rewriting the plan
     would break the physical sharing the templates rely on. *)
  let rec go ?(cuts = []) (p : Plan.t) : state =
    let go ?(cuts = cuts) p = go ~cuts p in
    if List.memq p cuts then Clean
    else
    match p with
    | Plan.Distinct q when simplify -> go q
    (* ̺ is NOT skipped: set-oriented compilation emits no order
       bookkeeping, so every Row_num in a plan realizes a positional
       predicate and must block the push (Table 1). *)
    | Plan.Fix_ref (id, _) -> if id = fix_id then Carries [] else Clean
    | Plan.Lit_table _ | Plan.Doc _ -> Clean
    | Plan.Iterate it -> (
      (* Big step across the iteration template (Figure 7(b)). The
         iterated source and the residual body (everything reached not
         through the map) mirror rules FOR2/STEP2 and FOR1/STEP1:
         - ∪ through the source only, body independent → push across;
         - ∪ through lifted variables in the body only → push across
           (itemwise iteration distributes over the body's ∪);
         - ∪ through both → the linearity violation of FOR1/FOR2. *)
      let st_source = go it.Plan.it_source in
      let st_rest = go ~cuts:(it.Plan.it_map :: cuts) it.Plan.it_result in
      let sym = Plan.op_symbol p in
      match (st_source, st_rest) with
      | (Blocked (b, s), _) | (_, Blocked (b, s)) -> Blocked (b, s)
      | (Clean, Clean) -> Clean
      | (Clean, Carries steps) -> Carries (sym :: steps)
      | (Carries steps, Clean) -> Carries (sym :: steps)
      | (Carries sl, Carries sr) ->
        Blocked
          ( Printf.sprintf
              "%s (∪ reaches both the iterated input and the body)" sym,
            sl @ sr ))
    | Plan.Template (name, body) -> (
      (* Big step: one crossing for the whole template, provided the ∪
         traverses its contents. *)
      match go body with
      | Clean -> Clean
      | Carries steps -> Carries (("«" ^ name ^ "»") :: steps)
      | Blocked _ as b -> b)
    | Plan.Id_join (ctx, arg) -> (
      (* Figure 9(a): the id lookup is a join against the document's
         id|ref table. The ctx input only locates that table (the roots
         of the context nodes); the compiler guarantees ctx and arg are
         iteration-aligned copies of the same binding, so the ∪ push
         follows the arg input and may ignore ctx carrying the ref. *)
      match (go ctx, go arg) with
      | (Blocked (b, s), _) | (_, Blocked (b, s)) -> Blocked (b, s)
      | (Clean, Clean) -> Clean
      | (_, Carries steps) | (Carries steps, Clean) ->
        Carries (Plan.op_symbol p :: steps))
    | Plan.Mu f | Plan.Mu_delta f -> (
      (* An outer recursion input feeding a nested fixpoint: the nested
         µ consumes its input repeatedly — conservative block. *)
      match (go f.seed, go f.body) with
      | (Clean, Clean) -> Clean
      | (Blocked (b, s), _) | (_, Blocked (b, s)) -> Blocked (b, s)
      | _ -> Blocked (Plan.op_symbol p, []))
    | _ -> (
      let sym = Plan.op_symbol p in
      match Plan.children p with
      | [ child ] -> (
        match go child with
        | Clean -> Clean
        | Blocked _ as b -> b
        | Carries steps ->
          if Plan.push_through p then Carries (sym :: steps)
          else Blocked (sym, steps))
      | [ l; r ] -> (
        match (go l, go r) with
        | (Blocked (b, s), _) | (_, Blocked (b, s)) -> Blocked (b, s)
        | (Clean, Clean) -> Clean
        | (Carries sl, Carries sr) -> (
          match p with
          | Plan.Union _ -> Carries ((sym :: sl) @ sr)
          | _ ->
            Blocked
              ( Printf.sprintf "%s (∪ arrives on both inputs)" sym,
                sl @ sr ))
        | (Carries steps, Clean) ->
          (* stratified refinement: ∪ passes a difference when only the
             left (diminished) input carries it *)
          if
            Plan.push_through p
            || (stratified && match p with Plan.Difference _ -> true | _ -> false)
          then Carries (sym :: steps)
          else Blocked (sym, steps)
        | (Clean, Carries steps) ->
          if Plan.push_through p then Carries (sym :: steps)
          else Blocked (sym, steps))
      | _ -> Clean)
  in
  match go plan with
  | Clean ->
    (* The body ignores its recursion input entirely: trivially
       distributive (one round reaches the fixed point). *)
    { distributive = true; blocking = None; steps = [] }
  | Carries steps ->
    { distributive = true; blocking = None; steps = List.rev steps }
  | Blocked (b, steps) ->
    { distributive = false; blocking = Some b; steps = List.rev steps }

let pp_outcome ppf o =
  if o.distributive then
    Format.fprintf ppf "distributive (∪ pushed through: %s)"
      (String.concat " → " o.steps)
  else
    Format.fprintf ppf "NOT distributive (blocked at %s after %s)"
      (Option.value ~default:"?" o.blocking)
      (String.concat " → " o.steps)
