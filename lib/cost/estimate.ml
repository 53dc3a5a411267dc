module Lang = Fixq_lang
module Xdm = Fixq_xdm
module Ast = Lang.Ast
module Axis = Xdm.Axis
module Syn = Xdm.Synopsis
module Diag = Fixq_analysis.Diag
module Plan = Fixq_algebra.Plan

(* ------------------------------------------------------------------ *)
(* Cardinality intervals                                               *)
(* ------------------------------------------------------------------ *)

type interval = { lo : int; hi : int option }

let exactly n = { lo = n; hi = Some n }
let zero = exactly 0
let one = exactly 1
let top = { lo = 0; hi = None }
let atmost n = { lo = 0; hi = Some n }

let interval_string i =
  match i.hi with
  | Some h when h = i.lo -> string_of_int h
  | Some h -> Printf.sprintf "%d..%d" i.lo h
  | None -> Printf.sprintf "%d..\xe2\x88\x9e" i.lo

let add_i a b =
  { lo = a.lo + b.lo;
    hi = (match (a.hi, b.hi) with Some x, Some y -> Some (x + y) | _ -> None) }

let mul_i a b =
  { lo = a.lo * b.lo;
    hi = (match (a.hi, b.hi) with Some x, Some y -> Some (x * y) | _ -> None) }

let hull a b =
  { lo = min a.lo b.lo;
    hi = (match (a.hi, b.hi) with Some x, Some y -> Some (max x y) | _ -> None) }

(* min of two upper bounds, keeping the given lower bound *)
let cap i c =
  match (i.hi, c) with
  | Some h, Some c -> { i with hi = Some (min h c) }
  | None, Some c -> { i with hi = Some c }
  | _, None -> i

let is_empty i = i.hi = Some 0

(* magnitude used for work accounting when a bound is unknown *)
let approx i = match i.hi with Some h -> float_of_int h | None -> 1000.0

(* ------------------------------------------------------------------ *)
(* Abstract values: cardinality × where-the-nodes-live                 *)
(* ------------------------------------------------------------------ *)

module PS = Set.Make (struct
  type t = string * string (* document uri, synopsis path key *)

  let compare = compare
end)

module SS = Set.Make (String)

(* [Paths]: document {e element} (or document-node) paths — steps stay
   inside the synopsis. [Any]: document nodes of known documents,
   unknown paths (a step re-anchors them by name totals). [Opaque]:
   atoms, constructed nodes, or nodes of unknown documents — nothing
   can be said, and fixpoint round bounds are no longer certifiable. *)
type pathset = Paths of PS.t | Any of SS.t | Opaque

type aval = {
  card : interval;
  paths : pathset;
  sat : bool;  (** exactly {e all} nodes at [paths] (Paths only) *)
}

let opaque card = { card; paths = Opaque; sat = false }

let uris_of = function
  | Paths ps -> PS.fold (fun (u, _) acc -> SS.add u acc) ps SS.empty
  | Any us -> us
  | Opaque -> SS.empty

let join_paths a b =
  match (a, b) with
  | Opaque, _ | _, Opaque -> Opaque
  | Any ua, other | other, Any ua -> Any (SS.union ua (uris_of other))
  | Paths a, Paths b -> Paths (PS.union a b)

(* ------------------------------------------------------------------ *)
(* Analysis state                                                      *)
(* ------------------------------------------------------------------ *)

type op_row = {
  op_loc : (int * int) option;
  op_depth : int;
  op_desc : string;
  op_card : interval;
  op_note : string option;
}

type engine_estimate = {
  eng_name : string;
  eng_cost : float;
  eng_native : bool;
  eng_note : string;
}

type t = {
  rows : op_row list;
  result_card : interval;
  rounds_bound : int option;
  bound_reason : string;
  work : float;
  engines : engine_estimate list;
  diagnostics : Diag.t list;
  docs : (string * bool) list;
}

type env = {
  registry : Xdm.Doc_registry.t option;
  spans : Lang.Parser.Spans.t option;
  syns : (string, Syn.t option) Hashtbl.t;
  id_attrs : (string, string list) Hashtbl.t;
  funcs : (string, Ast.fundef) Hashtbl.t;
  mutable rows : op_row option ref list;  (* reversed; reserved slots *)
  mutable diags : Diag.t list;
  mutable work : float;
  mutable docs : (string * bool) list;
  mutable first_bound : (int option * string) option;
      (* first IFP: certified bound (None = uncertifiable) and reason *)
  mutable quiet : bool;  (* inside speculative closure evaluation *)
  mutable inline : int;  (* user-function inlining depth left *)
}

let syn_of env uri =
  match Hashtbl.find_opt env.syns uri with
  | Some s -> s
  | None ->
    let s =
      match env.registry with
      | None -> None
      | Some registry -> Xdm.Doc_registry.synopsis ~registry uri
    in
    Hashtbl.replace env.syns uri s;
    if not (List.mem_assoc uri env.docs) then
      env.docs <- env.docs @ [ (uri, s <> None) ];
    s

let id_attrs_of env uri =
  match Hashtbl.find_opt env.id_attrs uri with
  | Some names -> names
  | None ->
    let names =
      match env.registry with
      | None -> []
      | Some registry -> (
        match Xdm.Doc_registry.find ~registry uri with
        | Some root -> (
          match root.Xdm.Node.doc with
          | Some d -> d.Xdm.Node.id_attribute_names
          | None -> [])
        | None -> [])
    in
    Hashtbl.replace env.id_attrs uri names;
    names

let loc_of env e =
  match env.spans with
  | None -> None
  | Some spans -> Lang.Parser.Spans.line_col spans e

let diag env ?at ~code ~severity msg =
  if not env.quiet then
    env.diags <-
      Diag.make ~loc:(match at with None -> None | Some e -> loc_of env e)
        ~code ~severity ~context:"main" msg
      :: env.diags

let reserve env =
  if env.quiet then None
  else begin
    let slot = ref None in
    env.rows <- slot :: env.rows;
    Some slot
  end

let fill env slot e ~depth desc card note =
  match slot with
  | None -> ()
  | Some slot ->
    slot :=
      Some
        { op_loc = loc_of env e; op_depth = depth; op_desc = desc;
          op_card = card; op_note = note }

let charge env units = if not env.quiet then env.work <- env.work +. units

(* Run [f] and scale the work it accrues by [times] — loop bodies. *)
let scaled env times f =
  let before = env.work in
  let r = f () in
  if not env.quiet then
    env.work <- before +. ((env.work -. before) *. max 1.0 times);
  r

(* ------------------------------------------------------------------ *)
(* Synopsis-backed totals                                              *)
(* ------------------------------------------------------------------ *)

(* Exact element count over a path set; [None] when any synopsis is
   missing. *)
let total_elements env = function
  | Opaque -> None
  | Any us ->
    SS.fold
      (fun u acc ->
        match (acc, syn_of env u) with
        | Some n, Some s -> Some (n + Syn.total_elements s + 1)
        | _ -> None)
      us (Some 0)
  | Paths ps ->
    PS.fold
      (fun (u, k) acc ->
        match (acc, syn_of env u) with
        | Some n, Some s -> Some (n + Syn.path_count s k)
        | _ -> None)
      ps (Some 0)

(* Keep only paths that actually hold elements. *)
let prune env ps =
  PS.filter
    (fun (u, k) ->
      match syn_of env u with Some s -> Syn.path_count s k > 0 | None -> true)
    ps

let all_paths_named env us name =
  SS.fold
    (fun u acc ->
      match syn_of env u with
      | None -> acc
      | Some s ->
        Syn.fold_paths
          (fun k count acc ->
            if count > 0 then
              let last =
                match String.rindex_opt k '/' with
                | Some i -> String.sub k (i + 1) (String.length k - i - 1)
                | None -> k
              in
              if name = "*" || last = name then PS.add (u, k) acc else acc
            else acc)
          s acc)
    us PS.empty

let last_component k =
  match String.rindex_opt k '/' with
  | Some i -> String.sub k (i + 1) (String.length k - i - 1)
  | None -> k

let parent_key k =
  match String.rindex_opt k '/' with
  | Some i -> Some (String.sub k 0 i)
  | None -> if k = "" then None else Some ""

(* ------------------------------------------------------------------ *)
(* Axis steps over the synopsis                                        *)
(* ------------------------------------------------------------------ *)

let name_of_test = function
  | Axis.Name n -> Some n
  | Axis.Kind_element (Some n) -> Some n
  | Axis.Kind_element None -> Some "*"
  | _ -> None

(* element-valued tests keep us inside the synopsis paths *)
let element_test t = name_of_test t <> None

let step_desc (s : Ast.axis_step) = "step " ^ Ast.show_axis_step s

(* Abstract axis step. Saturated contexts give exact counts for
   downward element steps; everything else is an upper bound. *)
let step_est env (ctx : aval) (s : Ast.axis_step) : aval =
  let axis = s.Ast.axis and test = s.Ast.test in
  charge env (approx ctx.card);
  let name_cap name us =
    SS.fold
      (fun u acc ->
        match (acc, syn_of env u) with
        | Some n, Some s ->
          Some (n + if name = "*" then Syn.total_elements s else Syn.name_total s name)
        | _ -> None)
      us (Some 0)
  in
  match ctx.paths with
  | Opaque -> (
    (* unknown context: cap by whole-universe name totals when the
       registry is in view *)
    match (element_test test, env.registry) with
    | true, Some registry ->
      let us = SS.of_list (Xdm.Doc_registry.uris ~registry ()) in
      let c = name_cap (Option.get (name_of_test test)) us in
      { card = (match c with Some n -> atmost n | None -> top);
        paths = Opaque; sat = false }
    | _ -> opaque top)
  | Any us when element_test test -> (
    let name = Option.get (name_of_test test) in
    match axis with
    | Axis.Child | Axis.Descendant | Axis.Descendant_or_self | Axis.Self
    | Axis.Following_sibling | Axis.Preceding_sibling | Axis.Following
    | Axis.Preceding | Axis.Parent | Axis.Ancestor | Axis.Ancestor_or_self ->
      let ps = all_paths_named env us name in
      let t = total_elements env (Paths ps) in
      { card = (match t with Some n -> atmost n | None -> top);
        paths = Paths ps; sat = false }
    | Axis.Attribute -> opaque top)
  | Any _ -> opaque top
  | Paths ps -> (
    let syn u = syn_of env u in
    let sum f =
      PS.fold
        (fun (u, k) acc ->
          match (acc, syn u) with
          | Some n, Some s -> (
            match f u s k with Some m -> Some (n + m) | None -> None)
          | _ -> None)
        ps (Some 0)
    in
    let collect f =
      PS.fold
        (fun (u, k) acc ->
          match (acc, syn u) with
          | Some set, Some s -> Some (f u s k set)
          | _ -> None)
        ps (Some PS.empty)
    in
    let named_kids s k =
      match name_of_test test with
      | Some "*" | None -> Syn.child_names s k
      | Some n -> if List.mem n (Syn.child_names s k) then [ n ] else []
    in
    let result paths ~exact_total ~fallback_hi =
      match paths with
      | None -> opaque (match fallback_hi with Some h -> atmost h | None -> top)
      | Some paths ->
        let paths = prune env paths in
        let t = total_elements env (Paths paths) in
        let card =
          match t with
          | Some n when ctx.sat -> exactly n
          | Some n ->
            cap (match fallback_hi with Some h -> atmost h | None -> top)
              (Some n)
          | None -> ( match fallback_hi with Some h -> atmost h | None -> top)
        in
        ignore exact_total;
        { card; paths = Paths paths; sat = ctx.sat && element_test test }
    in
    match (axis, element_test test) with
    | Axis.Child, true ->
      let paths =
        collect (fun u s k set ->
            List.fold_left
              (fun set n -> PS.add (u, Syn.child_key k n) set)
              set (named_kids s k))
      in
      let fanout_hi =
        match
          ( ctx.card.hi,
            sum (fun _ s k -> Some (Syn.fanout s k)) )
        with
        | Some c, Some f -> Some (c * f)
        | _ -> None
      in
      result paths ~exact_total:true ~fallback_hi:fanout_hi
    | Axis.Descendant, true | Axis.Descendant_or_self, true ->
      let rec close frontier seen =
        if PS.is_empty frontier then Some seen
        else
          match
            collect (fun _ _ _ set -> set) |> fun _ ->
            PS.fold
              (fun (u, k) acc ->
                match (acc, syn u) with
                | Some set, Some s ->
                  Some
                    (List.fold_left
                       (fun set n -> PS.add (u, Syn.child_key k n) set)
                       set (Syn.child_names s k))
                | _ -> None)
              frontier (Some PS.empty)
          with
          | None -> None
          | Some kids ->
            let fresh = PS.diff kids seen in
            close fresh (PS.union seen fresh)
      in
      (match close ps PS.empty with
      | None -> opaque top
      | Some all ->
        let all =
          if axis = Axis.Descendant_or_self then PS.union all ps else all
        in
        let keep =
          match name_of_test test with
          | Some "*" | None -> all
          | Some n -> PS.filter (fun (_, k) -> last_component k = n) all
        in
        result (Some keep) ~exact_total:true ~fallback_hi:None)
    | Axis.Self, _ ->
      let keep =
        match name_of_test test with
        | Some "*" | None -> if element_test test then ps else ps
        | Some n -> PS.filter (fun (_, k) -> last_component k = n) ps
      in
      if element_test test then
        let t = total_elements env (Paths (prune env keep)) in
        { card =
            (match t with
            | Some n when ctx.sat -> exactly n
            | Some n -> cap { lo = 0; hi = ctx.card.hi } (Some n)
            | None -> { lo = 0; hi = ctx.card.hi });
          paths = Paths (prune env keep); sat = ctx.sat }
      else { card = { lo = 0; hi = ctx.card.hi }; paths = Paths ps; sat = false }
    | Axis.Parent, _ ->
      let paths =
        PS.fold
          (fun (u, k) acc ->
            match parent_key k with
            | Some p -> PS.add (u, p) acc
            | None -> acc)
          ps PS.empty
      in
      let t = total_elements env (Paths paths) in
      { card =
          (match t with
          | Some n -> cap { lo = 0; hi = ctx.card.hi } (Some n)
          | None -> { lo = 0; hi = ctx.card.hi });
        paths = Paths paths; sat = false }
    | Axis.Ancestor, _ | Axis.Ancestor_or_self, _ ->
      let paths =
        PS.fold
          (fun (u, k) acc ->
            let rec up k acc =
              match parent_key k with
              | Some p -> up p (PS.add (u, p) acc)
              | None -> acc
            in
            up k (if axis = Axis.Ancestor_or_self then PS.add (u, k) acc else acc))
          ps PS.empty
      in
      let keep =
        match name_of_test test with
        | Some n when n <> "*" ->
          PS.filter (fun (_, k) -> last_component k = n) paths
        | _ -> paths
      in
      result (Some keep) ~exact_total:false ~fallback_hi:None
      |> fun v -> { v with sat = false }
    | Axis.Following_sibling, true | Axis.Preceding_sibling, true ->
      let paths =
        collect (fun u s k set ->
            match parent_key k with
            | None -> set
            | Some p ->
              List.fold_left
                (fun set n -> PS.add (u, Syn.child_key p n) set)
                set
                (match name_of_test test with
                | Some "*" | None -> Syn.child_names s p
                | Some n ->
                  if List.mem n (Syn.child_names s p) then [ n ] else []))
      in
      (result paths ~exact_total:false ~fallback_hi:None |> fun v ->
       { v with sat = false })
    | Axis.Following, true | Axis.Preceding, true ->
      let us = uris_of (Paths ps) in
      let keep = all_paths_named env us (Option.get (name_of_test test)) in
      (result (Some keep) ~exact_total:false ~fallback_hi:None |> fun v ->
       { v with sat = false })
    | Axis.Attribute, _ -> (
      let name =
        match test with
        | Axis.Name n -> Some n
        | Axis.Kind_attribute (Some n) -> Some n
        | Axis.Kind_attribute None -> Some "*"
        | _ -> None
      in
      match name with
      | None -> opaque zero
      | Some n ->
        let t =
          sum (fun _ s k ->
              Some
                (if n = "*" then
                   List.fold_left
                     (fun acc a -> acc + Syn.attr_count s k a)
                     0 (Syn.attr_names s k)
                 else Syn.attr_count s k n))
        in
        opaque
          (match t with
          | Some total when ctx.sat -> exactly total
          | Some total -> atmost total
          | None -> top))
    | _, false -> (
      (* text()/comment()/node() steps leave the element abstraction *)
      match axis with
      | Axis.Child | Axis.Descendant | Axis.Descendant_or_self ->
        let t =
          match test with
          | Axis.Kind_text ->
            sum (fun _ s k -> Some (Syn.text_count s k))
          | _ -> None
        in
        opaque
          (match t with
          | Some total when ctx.sat && axis = Axis.Child -> exactly total
          | Some total -> atmost total
          | None -> top)
      | _ -> opaque top))

(* ------------------------------------------------------------------ *)
(* The abstract interpreter                                            *)
(* ------------------------------------------------------------------ *)

let inline_depth = 3
let closure_rounds_max = 500
let default_rounds = 10.0

let rec est env (vars : (string * aval) list) (ctx : aval option) d
    (e : Ast.expr) : aval =
  let self = est env in
  let ctx_val () =
    match ctx with Some c -> c | None -> opaque top
  in
  match e with
  | Ast.Literal _ -> { card = one; paths = Opaque; sat = false }
  | Ast.Empty_seq -> { card = zero; paths = Opaque; sat = false }
  | Ast.Var v -> (
    match List.assoc_opt v vars with Some a -> a | None -> opaque top)
  | Ast.Context_item -> ctx_val ()
  | Ast.Root -> (
    let c = ctx_val () in
    match uris_of c.paths |> SS.elements with
    | [] -> opaque { lo = 0; hi = Some 1 }
    | us ->
      let ps =
        List.fold_left
          (fun acc u ->
            match syn_of env u with
            | Some s -> PS.add (u, Syn.root_key s) acc
            | None -> acc)
          PS.empty us
      in
      if PS.is_empty ps then opaque { lo = 0; hi = Some 1 }
      else
        { card = exactly (PS.cardinal ps); paths = Paths ps; sat = true })
  | Ast.Sequence (a, b) ->
    let va = self vars ctx d a and vb = self vars ctx d b in
    { card = add_i va.card vb.card; paths = join_paths va.paths vb.paths;
      sat = false }
  | Ast.Union (a, b) ->
    let va = self vars ctx d a and vb = self vars ctx d b in
    let slot = reserve env in
    let paths = join_paths va.paths vb.paths in
    let card =
      cap
        { lo = max va.card.lo vb.card.lo;
          hi = (add_i va.card vb.card).hi }
        (total_elements env paths)
    in
    let v = { card; paths; sat = va.sat && vb.sat } in
    fill env slot e ~depth:d "union" v.card None;
    charge env (approx va.card +. approx vb.card);
    v
  | Ast.Except (a, b) ->
    let va = self vars ctx d a and vb = self vars ctx d b in
    charge env (approx va.card +. approx vb.card);
    { card = { lo = 0; hi = va.card.hi }; paths = va.paths; sat = false }
  | Ast.Intersect (a, b) ->
    let va = self vars ctx d a and vb = self vars ctx d b in
    charge env (approx va.card +. approx vb.card);
    { card =
        { lo = 0;
          hi =
            (match (va.card.hi, vb.card.hi) with
            | Some x, Some y -> Some (min x y)
            | Some x, None | None, Some x -> Some x
            | None, None -> None) };
      paths =
        (match (va.paths, vb.paths) with
        | Paths x, Paths y -> Paths (PS.inter x y)
        | p, Opaque | Opaque, p -> p
        | p, _ -> p);
      sat = false }
  | Ast.Path (a, b) ->
    let va = self vars ctx d a in
    let item_ctx = { va with card = (if is_empty va.card then zero else one) } in
    scaled env (approx va.card) (fun () ->
        let vb = self vars (Some { item_ctx with sat = va.sat }) (d + 1) b in
        (* per-item evaluation then ddo: the abstraction already works on
           the whole set when saturated, so take vb as the union *)
        let card =
          if va.sat then vb.card
          else
            match vb.paths with
            | Paths _ ->
              cap (mul_i { lo = 0; hi = va.card.hi } vb.card)
                (total_elements env vb.paths)
            | _ -> mul_i { lo = min 1 va.card.lo; hi = va.card.hi } vb.card
        in
        { vb with card; sat = va.sat && vb.sat })
  | Ast.Axis_step s ->
    let slot = reserve env in
    let v = step_est env (ctx_val ()) s in
    let note =
      match v.paths with
      | Paths ps when PS.cardinal ps <= 4 && not (PS.is_empty ps) ->
        Some
          (String.concat ", "
             (List.map
                (fun (_, k) -> if k = "" then "/" else k)
                (PS.elements ps)))
      | Paths ps when PS.is_empty ps -> Some "statically empty"
      | _ -> None
    in
    fill env slot e ~depth:d (step_desc s) v.card note;
    let c = ctx_val () in
    if is_empty v.card && not (is_empty c.card) && c.paths <> Opaque then
      diag env ~at:e ~code:"FQ050" ~severity:Diag.Warning
        (Printf.sprintf
           "%s matches nothing in the loaded documents (synopsis-empty step)"
           (step_desc s));
    v
  | Ast.Filter (a, p) ->
    let va = self vars ctx d a in
    let slot = reserve env in
    let vp =
      scaled env (approx va.card) (fun () ->
          self vars
            (Some { va with card = (if is_empty va.card then zero else one) })
            (d + 1) p)
    in
    let positional = match p with Ast.Literal _ -> true | _ -> false in
    let v =
      if is_empty va.card then { va with card = zero; sat = false }
      else if is_empty vp.card then begin
        (* predicate can never select anything *)
        diag env ~at:e ~code:"FQ051" ~severity:Diag.Warning
          "filter predicate is statically empty — this branch selects \
           nothing (dead branch)";
        { va with card = zero; sat = false }
      end
      else if positional then
        { va with card = { lo = 0; hi = Some 1 }; sat = false }
      else { va with card = { va.card with lo = 0 }; sat = false }
    in
    fill env slot e ~depth:d "filter" v.card
      (if positional then Some "positional" else None);
    v
  | Ast.For { var; pos; source; body } ->
    let vs = self vars ctx d source in
    let slot = reserve env in
    let item = { vs with card = (if is_empty vs.card then zero else one) } in
    let vars' =
      (var, { item with sat = false })
      :: (match pos with Some p -> [ (p, opaque one) ] | None -> [])
      @ vars
    in
    let vb =
      scaled env (approx vs.card) (fun () -> self vars' ctx (d + 1) body)
    in
    let card =
      match vb.paths with
      | Paths _ ->
        cap (mul_i { lo = 0; hi = vs.card.hi } vb.card)
          (total_elements env vb.paths)
      | _ -> mul_i { lo = 0; hi = vs.card.hi } vb.card
    in
    let v = { card; paths = vb.paths; sat = false } in
    fill env slot e ~depth:d (Printf.sprintf "for $%s" var) v.card None;
    v
  | Ast.Sort { var; source; key; body; _ } ->
    let vs = self vars ctx d source in
    let item = { vs with card = (if is_empty vs.card then zero else one) } in
    let vars' = (var, { item with sat = false }) :: vars in
    scaled env (approx vs.card) (fun () ->
        ignore (self vars' ctx (d + 1) key));
    let vb =
      scaled env (approx vs.card) (fun () -> self vars' ctx (d + 1) body)
    in
    charge env (approx vs.card *. 2.0);
    { card = mul_i { lo = 0; hi = vs.card.hi } vb.card; paths = vb.paths;
      sat = false }
  | Ast.Let { var; value; body } ->
    let vv = self vars ctx d value in
    self ((var, vv) :: vars) ctx d body
  | Ast.If (c, t_, e_) ->
    let vc = self vars ctx d c in
    if is_empty vc.card then begin
      diag env ~at:t_ ~code:"FQ051" ~severity:Diag.Warning
        "condition is statically empty (effective boolean value false) — \
         the then-branch is dead";
      self vars ctx d e_
    end
    else
      let vt = self vars ctx (d + 1) t_ and ve = self vars ctx (d + 1) e_ in
      { card = hull vt.card ve.card; paths = join_paths vt.paths ve.paths;
        sat = false }
  | Ast.Quantified (_, v, s, p) ->
    let vs = self vars ctx d s in
    scaled env (approx vs.card) (fun () ->
        ignore
          (self
             ((v, { vs with card = one; sat = false }) :: vars)
             ctx (d + 1) p));
    opaque one
  | Ast.Arith (_, a, b) ->
    let va = self vars ctx d a and vb = self vars ctx d b in
    opaque
      { lo = min 1 (min va.card.lo vb.card.lo); hi = Some 1 }
  | Ast.Neg a ->
    let va = self vars ctx d a in
    opaque { lo = min 1 va.card.lo; hi = Some 1 }
  | Ast.Gen_cmp (_, a, b) | Ast.Node_is (a, b) | Ast.Node_before (a, b)
  | Ast.Node_after (a, b) ->
    let va = self vars ctx d a and vb = self vars ctx d b in
    charge env (approx va.card +. approx vb.card);
    opaque one
  | Ast.Val_cmp (_, a, b) ->
    let va = self vars ctx d a and vb = self vars ctx d b in
    opaque { lo = min 1 (min va.card.lo vb.card.lo); hi = Some 1 }
  | Ast.And (a, b) | Ast.Or (a, b) ->
    ignore (self vars ctx d a);
    ignore (self vars ctx d b);
    opaque one
  | Ast.Range (a, b) -> (
    ignore (self vars ctx d a);
    ignore (self vars ctx d b);
    match (a, b) with
    | Ast.Literal (Xdm.Atom.Int x), Ast.Literal (Xdm.Atom.Int y) ->
      if y >= x then opaque (exactly (y - x + 1)) else opaque zero
    | _ -> opaque top)
  | Ast.Call ("doc", [ Ast.Literal (Xdm.Atom.Str uri) ]) -> (
    let slot = reserve env in
    match syn_of env uri with
    | Some s ->
      let v =
        { card = one; paths = Paths (PS.singleton (uri, Syn.root_key s));
          sat = true }
      in
      fill env slot e ~depth:d (Printf.sprintf "doc(%S)" uri) v.card
        (Some (Printf.sprintf "%d nodes" (Syn.total_nodes s)));
      v
    | None ->
      fill env slot e ~depth:d (Printf.sprintf "doc(%S)" uri)
        { lo = 0; hi = Some 1 }
        (Some "no synopsis (document not loaded)");
      { card = { lo = 0; hi = Some 1 }; paths = Any (SS.singleton uri);
        sat = false })
  | Ast.Call ("doc", _) -> opaque { lo = 0; hi = Some 1 }
  | Ast.Call ("id", args) ->
    let vargs = List.map (self vars ctx d) args in
    let slot = reserve env in
    List.iter (fun v -> charge env (approx v.card)) vargs;
    let us =
      List.fold_left
        (fun acc v -> SS.union acc (uris_of v.paths))
        SS.empty vargs
    in
    let us =
      if SS.is_empty us then uris_of (ctx_val ()).paths else us
    in
    let v =
      if SS.is_empty us then opaque top
      else
        let ps =
          SS.fold
            (fun u acc ->
              match syn_of env u with
              | None -> acc
              | Some s ->
                let id_names = id_attrs_of env u in
                Syn.fold_paths
                  (fun k count acc ->
                    if
                      count > 0
                      && List.exists (fun n -> Syn.attr_count s k n > 0) id_names
                    then PS.add (u, k) acc
                    else acc)
                  s acc)
            us PS.empty
        in
        let t = total_elements env (Paths ps) in
        { card = (match t with Some n -> atmost n | None -> top);
          paths = Paths ps; sat = false }
    in
    fill env slot e ~depth:d "id(...)" v.card None;
    v
  | Ast.Call (("count" | "position" | "last" | "string-length" | "empty"
              | "exists" | "not" | "number" | "sum" | "round" | "floor"
              | "ceiling" | "abs" | "name" | "local-name" | "string"
              | "concat" | "true" | "false"), args) ->
    List.iter (fun a -> ignore (self vars ctx d a)) args;
    opaque one
  | Ast.Call (("min" | "max" | "avg" | "string-join" | "zero-or-one"
              | "exactly-one" | "data" | "distinct-values"), args) ->
    let vs = List.map (self vars ctx d) args in
    let c = List.fold_left (fun acc v -> add_i acc v.card) zero vs in
    opaque { lo = 0; hi = c.hi }
  | Ast.Call (("reverse" | "subsequence" | "insert-before" | "remove"
              | "one-or-more"), args) ->
    let vs = List.map (self vars ctx d) args in
    let c = List.fold_left (fun acc v -> add_i acc v.card) zero vs in
    let paths =
      List.fold_left (fun acc v -> join_paths acc v.paths) (Paths PS.empty) vs
    in
    { card = { lo = 0; hi = c.hi }; paths; sat = false }
  | Ast.Call ("root", [ a ]) ->
    let va = self vars ctx d a in
    est env vars (Some va) d Ast.Root
  | Ast.Call (f, args) -> (
    let vargs = List.map (self vars ctx d) args in
    match Hashtbl.find_opt env.funcs f with
    | Some fd when env.inline > 0 ->
      let saved = env.inline in
      env.inline <- env.inline - 1;
      let bindings =
        List.map2 (fun (p, _) v -> (p, v)) fd.Ast.params vargs
      in
      let r = self (bindings @ vars) None d fd.Ast.body in
      env.inline <- saved;
      r
    | Some _ ->
      (* recursion (or too deep to chase): nodes of the documents in
         scope at worst *)
      let us =
        List.fold_left
          (fun acc v -> SS.union acc (uris_of v.paths))
          SS.empty vargs
      in
      if SS.is_empty us then opaque top
      else { card = top; paths = Any us; sat = false }
    | None -> opaque top)
  | Ast.Elem_constr (_, attrs, content) ->
    List.iter
      (fun (_, pieces) ->
        List.iter
          (function
            | Ast.A_lit _ -> ()
            | Ast.A_expr a -> ignore (self vars ctx d a))
          pieces)
      attrs;
    List.iter (fun c -> ignore (self vars ctx (d + 1) c)) content;
    { card = one; paths = Opaque; sat = false }
  | Ast.Comp_elem (_, a) | Ast.Text_constr a | Ast.Attr_constr (_, a)
  | Ast.Comment_constr a | Ast.Doc_constr a ->
    ignore (self vars ctx d a);
    { card = one; paths = Opaque; sat = false }
  | Ast.Instance_of (a, _) | Ast.Castable (a, _, _) ->
    ignore (self vars ctx d a);
    opaque one
  | Ast.Cast (a, _, _) ->
    let va = self vars ctx d a in
    opaque { lo = min 1 va.card.lo; hi = Some 1 }
  | Ast.Typeswitch (s, cases, _, dflt) ->
    let vs = self vars ctx d s in
    let branches =
      List.map
        (fun (_, v, b) ->
          let vars' =
            match v with Some v -> (v, vs) :: vars | None -> vars
          in
          self vars' ctx (d + 1) b)
        cases
      @ [ self vars ctx (d + 1) dflt ]
    in
    List.fold_left
      (fun acc v ->
        { card = hull acc.card v.card; paths = join_paths acc.paths v.paths;
          sat = false })
      (List.hd branches) (List.tl branches)
  | Ast.Ifp { var; seed; body; accum } -> ifp_est env vars ctx d e ~var ~seed ~body ~accum

and ifp_est env vars ctx d e ~var ~seed ~body ~accum =
  let slot = reserve env in
  let vseed = est env vars ctx (d + 1) seed in
  if is_empty vseed.card then
    diag env ~at:seed ~code:"FQ052" ~severity:Diag.Warning
      "the fixpoint seed is statically empty — the IFP returns the empty \
       sequence without iterating";
  (* Reachability closure over the synopsis: everything an inflationary
     accumulation of document nodes can ever contain. *)
  let closure () =
    let union_tot p = total_elements env p in
    let rec go paths n =
      if n > closure_rounds_max then Error "closure did not stabilize"
      else
        let x =
          { card =
              (match union_tot paths with
              | Some t -> atmost t
              | None -> top);
            paths; sat = false }
        in
        let was_quiet = env.quiet in
        env.quiet <- true;
        let vb = est env ((var, x) :: vars) ctx (d + 1) body in
        env.quiet <- was_quiet;
        match join_paths paths vb.paths with
        | Opaque ->
          Error
            "the recursion step can produce nodes outside the loaded \
             documents (constructed nodes, atoms, or unknown paths)"
        | joined -> (
          let grew =
            match (paths, joined) with
            | Paths a, Paths b -> PS.cardinal b > PS.cardinal a
            | Paths _, Any _ -> true
            | Any a, Any b -> SS.cardinal b > SS.cardinal a
            | Any _, Paths _ -> false
            | Opaque, _ | _, Opaque -> false
          in
          if grew then go joined (n + 1)
          else
            match union_tot joined with
            | Some t -> Ok (joined, t)
            | None -> Error "a referenced document has no synopsis")
    in
    match vseed.paths with
    | Opaque -> Error "the seed's paths are not derivable from the synopsis"
    | p -> go p 0
  in
  let bound, bound_reason, reach =
    if accum <> None then
      ( None,
        "accumulate by: semiring iteration is not bounded by node counts",
        None )
    else
      match closure () with
      | Ok (paths, t) ->
        ( Some (t + 1),
          Printf.sprintf
            "node-only IFP: at most %d reachable nodes over the synopsis, \
             so at most %d rounds" t (t + 1),
          Some (paths, t) )
      | Error reason -> (None, reason, None)
  in
  (match bound with
  | Some b ->
    diag env ~at:e ~code:"FQ053" ~severity:Diag.Info
      (Printf.sprintf "certified fixpoint round bound: <= %d (%s)" b
         bound_reason)
  | None ->
    diag env ~at:e ~code:"FQ054" ~severity:Diag.Info
      (Printf.sprintf "fixpoint round bound not certifiable: %s" bound_reason));
  if env.first_bound = None && not env.quiet then
    env.first_bound <- Some (bound, bound_reason);
  (* Steady-state body estimate (visible rows + work), scaled by the
     expected number of rounds. *)
  let x_final =
    match reach with
    | Some (paths, t) -> { card = atmost t; paths; sat = false }
    | None -> (
      match join_paths vseed.paths vseed.paths with
      | p -> { card = top; paths = p; sat = false })
  in
  let rounds_est =
    match bound with
    | Some b -> float_of_int (min b 1_000_000)
    | None -> default_rounds
  in
  let vb =
    scaled env rounds_est (fun () ->
        est env ((var, x_final) :: vars) ctx (d + 1) body)
  in
  (match accum with
  | Some { Ast.weight = Some w; _ } ->
    ignore (est env ((var, x_final) :: vars) ctx (d + 1) w)
  | _ -> ());
  let v =
    match reach with
    | Some (paths, t) ->
      { card = { lo = vseed.card.lo; hi = Some t }; paths; sat = false }
    | None ->
      { card = { lo = vseed.card.lo; hi = None };
        paths = join_paths vseed.paths vb.paths; sat = false }
  in
  fill env slot e ~depth:d
    (Printf.sprintf "ifp $%s%s" var
       (match accum with
       | Some { Ast.kind; _ } ->
         " accumulate by " ^ Fixq_semiring.Semiring.kind_to_string kind
       | None -> ""))
    v.card
    (Some
       (match bound with
       | Some b -> Printf.sprintf "rounds <= %d (certified)" b
       | None -> "rounds uncertified"));
  v

(* ------------------------------------------------------------------ *)
(* Engine cost model                                                   *)
(* ------------------------------------------------------------------ *)

(* [delta] is the one Delta licence (Figure 5 or the ∪ push-up): every
   engine runs the fixpoint it licenses, so every engine gets the same
   discount. *)
let engine_estimates ~work ~mat_nodes ~has_ifp ~compiled ~sql_renderable
    ~delta =
  let delta_factor = if delta then 0.7 else 1.0 in
  let interp =
    { eng_name = "interp";
      eng_cost = work *. delta_factor;
      eng_native = true;
      eng_note =
        (if delta then "Delta halves refeeding"
         else "Naive fixpoint on the tree interpreter") }
  in
  let algebra =
    match (has_ifp, compiled) with
    | false, _ | _, None ->
      { eng_name = "algebra"; eng_cost = work +. 5.0; eng_native = false;
        eng_note = "no compilable fixpoint: runs on the interpreter" }
    | true, Some true ->
      (* calibrated against bench -- cost: the relational emulation pays
         roughly a 1.4x per-unit overhead over the tree interpreter *)
      { eng_name = "algebra";
        eng_cost = 40.0 +. (1.4 *. work *. delta_factor);
        eng_native = true;
        eng_note =
          (if delta then "Table-1 plan, mu-delta"
           else "Table-1 plan, mu (no Delta licence)") }
    | true, Some false ->
      { eng_name = "algebra"; eng_cost = work +. 15.0; eng_native = false;
        eng_note = "body outside the compilable subset: interpreter fallback" }
  in
  let sql =
    match (has_ifp, sql_renderable) with
    | false, _ | _, None ->
      { eng_name = "sql"; eng_cost = work +. 5.0; eng_native = false;
        eng_note = "no fixpoint to render: runs on the interpreter" }
    | true, Some true ->
      (* materialization of the document relations plus a heavier
         per-unit factor: measured consistently slowest of the three *)
      { eng_name = "sql";
        eng_cost =
          60.0 +. (0.25 *. mat_nodes)
          +. (2.5 *. work *. delta_factor);
        eng_native = true;
        eng_note = "WITH RECURSIVE over materialized document relations" }
    | true, Some false ->
      { eng_name = "sql"; eng_cost = work +. 15.0; eng_native = false;
        eng_note = "not renderable to linear WITH RECURSIVE: fallback" }
  in
  [ interp; algebra; sql ]

let analyze ?registry ?spans ?(compiled = None) ?(sql_renderable = None)
    ?(algebra_delta = false) ?(interp_delta = false) (p : Ast.program) : t =
  let env =
    { registry; spans; syns = Hashtbl.create 8; id_attrs = Hashtbl.create 8;
      funcs = Hashtbl.create 8; rows = []; diags = []; work = 0.0; docs = [];
      first_bound = None; quiet = false; inline = inline_depth }
  in
  List.iter (fun fd -> Hashtbl.replace env.funcs fd.Ast.fname fd) p.Ast.functions;
  let globals =
    List.fold_left
      (fun vars (v, e) -> (v, est env vars None 0 e) :: vars)
      [] p.Ast.variables
  in
  let result = est env globals None 0 p.Ast.main in
  let has_ifp = Fixq.count_ifps p > 0 in
  let mat_nodes =
    List.fold_left
      (fun acc (uri, ok) ->
        if ok then
          match syn_of env uri with
          | Some s -> acc +. float_of_int (Syn.total_nodes s)
          | None -> acc
        else acc)
      0.0 env.docs
  in
  let work = max 1.0 env.work in
  let engines =
    engine_estimates ~work ~mat_nodes ~has_ifp ~compiled ~sql_renderable
      ~delta:(algebra_delta || interp_delta)
  in
  let rounds_bound, bound_reason =
    match env.first_bound with
    | Some (b, r) -> (b, r)
    | None -> (None, if has_ifp then "no bound derived" else "no fixpoint")
  in
  let diagnostics =
    List.sort_uniq
      (fun a b ->
        let c = Diag.compare a b in
        if c <> 0 then c else compare a b)
      (List.rev env.diags)
  in
  { rows = List.filter_map (fun r -> !r) (List.rev env.rows);
    result_card = result.card;
    rounds_bound; bound_reason; work; engines; diagnostics; docs = env.docs }

(* ------------------------------------------------------------------ *)
(* Human rendering (fixq explain, the explain protocol op)             *)
(* ------------------------------------------------------------------ *)

let to_text (t : t) =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "cost estimate\n";
  pf "  work: %.0f units\n" t.work;
  pf "  result cardinality: %s\n" (interval_string t.result_card);
  (match t.rounds_bound with
  | Some n -> pf "  rounds bound: <= %d (certified)\n" n
  | None -> pf "  rounds bound: none (%s)\n" t.bound_reason);
  List.iter
    (fun (uri, ok) ->
      pf "  doc %s: %s\n" uri
        (if ok then "synopsis available" else "no synopsis"))
    t.docs;
  pf "engines\n";
  List.iter
    (fun e ->
      pf "  %-8s %8.0f  %-8s %s\n" e.eng_name e.eng_cost
        (if e.eng_native then "native" else "fallback")
        e.eng_note)
    t.engines;
  if t.rows <> [] then begin
    pf "operators\n";
    let loc_str r =
      match r.op_loc with
      | Some (l, c) -> Printf.sprintf "%d:%d" l c
      | None -> "-"
    in
    let w_loc =
      List.fold_left (fun w r -> max w (String.length (loc_str r))) 3 t.rows
    in
    let w_card =
      List.fold_left
        (fun w r -> max w (String.length (interval_string r.op_card)))
        4 t.rows
    in
    List.iter
      (fun r ->
        pf "  %-*s  %-*s  %s%s%s\n" w_loc (loc_str r) w_card
          (interval_string r.op_card)
          (String.make (2 * r.op_depth) ' ')
          r.op_desc
          (match r.op_note with None -> "" | Some n -> "  [" ^ n ^ "]"))
      t.rows
  end;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Table-1 plan annotation                                             *)
(* ------------------------------------------------------------------ *)

module PH = Hashtbl.Make (struct
  type t = Plan.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let plan_cards ?registry plan =
  let syn uri =
    match registry with
    | None -> None
    | Some registry -> Xdm.Doc_registry.synopsis ~registry uri
  in
  let uris =
    match registry with
    | None -> []
    | Some registry -> Xdm.Doc_registry.uris ~registry ()
  in
  let sum f =
    List.fold_left
      (fun acc u ->
        match (acc, syn u) with
        | Some n, Some s -> Some (n + f s)
        | _ -> None)
      (Some 0) uris
  in
  let elements_cap = sum Syn.total_elements in
  let name_cap n = sum (fun s -> Syn.name_total s n) in
  let memo = PH.create 32 in
  let rec go p =
    match PH.find_opt memo p with
    | Some c -> c
    | None ->
      let c =
        match p with
        | Plan.Lit_table (_, rows) -> exactly (List.length rows)
        | Plan.Doc _ -> one
        | Plan.Fix_ref _ -> (
          match elements_cap with Some n -> atmost n | None -> top)
        | Plan.Project (_, q) | Plan.Fun (_, _, q) | Plan.Tag (_, q)
        | Plan.Row_num (_, q) | Plan.Construct (_, q) | Plan.Template (_, q) ->
          go q
        | Plan.Select (_, q) | Plan.Distinct q ->
          { lo = 0; hi = (go q).hi }
        | Plan.Join (_, a, b) | Plan.Cross (a, b) ->
          { lo = 0; hi = (mul_i (go a) (go b)).hi }
        | Plan.Union (a, b) -> add_i (go a) (go b)
        | Plan.Difference (a, b) ->
          ignore (go b);
          { lo = 0; hi = (go a).hi }
        | Plan.Aggr (_, spec, q) ->
          let c = go q in
          if spec.Plan.agg_partition = None then one else { lo = 0; hi = c.hi }
        | Plan.Step (axis, test, _, q) -> (
          let c = go q in
          let capn =
            match name_of_test test with
            | Some n when n <> "*" -> name_cap n
            | _ -> elements_cap
          in
          match axis with
          | Axis.Self | Axis.Parent -> cap { lo = 0; hi = c.hi } capn
          | _ -> (
            match capn with Some n -> atmost n | None -> top))
        | Plan.Id_join (a, b) ->
          ignore (go b);
          cap { lo = 0; hi = (go a).hi } elements_cap
        | Plan.Mu { Plan.seed; body; _ } | Plan.Mu_delta { Plan.seed; body; _ }
          ->
          ignore (go body);
          let s = go seed in
          cap { lo = s.lo; hi = None } elements_cap
        | Plan.Iterate it -> go it.Plan.it_result
      in
      PH.replace memo p c;
      c
  in
  ignore (go plan);
  fun p -> go p
