(* What the benchmark keeps of a response line: the fields its checks
   and metrics read, with the result bytes reduced to a digest. Keeping
   summaries instead of parsed responses keeps the benchmark's heap small,
   so its own GC neither stalls the timed round trips nor slows the
   in-process replay. *)

module Json = Fixq_service.Json

type t = {
  ok : bool;
  bytes : int;  (** length of the response line *)
  result : Digest.t;  (** digest of the ["result"] string *)
  result_len : int;
  prepared : string option;  (** ["prepared_cache"] *)
  cached : string option;  (** ["result_cache"] *)
  scatter : bool;
  partition : bool;  (** a scatter leg's answer *)
  nodes_fed : int;
  depth : int;
  used_delta : bool;
  wall_ms : float;
  patch : bool;  (** a [patch-doc] answer with per-entry outcomes *)
  maintained : int;
  recompute : int;
  delta_nodes : int;
}

let int name j = Option.value ~default:0 (Json.int_opt (Json.member name j))

let of_json ~bytes j =
  let result = Option.value ~default:"" (Json.str_opt (Json.member "result" j)) in
  let entries = Json.member "entries" j in
  { ok = Json.bool_opt (Json.member "ok" j) = Some true;
    bytes;
    result = Digest.string result;
    result_len = String.length result;
    prepared = Json.str_opt (Json.member "prepared_cache" j);
    cached = Json.str_opt (Json.member "result_cache" j);
    scatter = Json.member "scatter" j <> Json.Null;
    partition = Json.member "partition" j <> Json.Null;
    nodes_fed = int "nodes_fed" j;
    depth = int "depth" j;
    used_delta = Json.bool_opt (Json.member "used_delta" j) = Some true;
    wall_ms = Option.value ~default:0. (Json.num_opt (Json.member "wall_ms" j));
    patch = entries <> Json.Null;
    maintained = int "maintained" j;
    recompute = int "recompute" j;
    delta_nodes =
      (match entries with
      | Json.List es -> List.fold_left (fun a e -> a + int "delta" e) 0 es
      | _ -> 0) }

let of_line line =
  match Json.parse line with
  | j -> of_json ~bytes:(String.length line) j
  | exception Json.Parse_error _ -> of_json ~bytes:(String.length line) Json.Null

(* the request's answer had to be computed now: a result-cache miss *)
let executed r = r.cached = Some "miss"

(* The request class a response reveals: cache outcome, or scattered
   versus routed. *)
let run_class ~family r =
  if r.scatter then family ^ ":scatter"
  else
    match (r.prepared, r.cached) with
    | Some p, Some c -> Printf.sprintf "%s:p-%s/r-%s" family p c
    | _ -> family

(* A write's class: snapshot or compaction writes, else its action. *)
let write_class ~family ~snapshot ~compaction =
  if snapshot then "snapshot" else if compaction then "compaction" else family
