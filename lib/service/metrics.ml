type agg = {
  label : string;
  mutable count : int;
  mutable total_ms : float;
  mutable min_ms : float;
  mutable max_ms : float;
}

type t = { table : (string, agg) Hashtbl.t; lock : Mutex.t }

let create () = { table = Hashtbl.create 16; lock = Mutex.create () }

let record t ~key ~label ~ms =
  Mutex.lock t.lock;
  (match Hashtbl.find_opt t.table key with
  | Some a ->
    a.count <- a.count + 1;
    a.total_ms <- a.total_ms +. ms;
    if ms < a.min_ms then a.min_ms <- ms;
    if ms > a.max_ms then a.max_ms <- ms
  | None ->
    Hashtbl.replace t.table key
      { label; count = 1; total_ms = ms; min_ms = ms; max_ms = ms });
  Mutex.unlock t.lock

let sorted_aggs t =
  Mutex.lock t.lock;
  let aggs =
    Hashtbl.fold
      (fun _ a acc ->
        { a with label = a.label } :: acc (* copy under the lock *))
      t.table []
  in
  Mutex.unlock t.lock;
  List.sort (fun a b -> compare (b.count, b.label) (a.count, a.label)) aggs

let to_json t =
  let aggs = sorted_aggs t in
  Json.List
    (List.map
       (fun a ->
         Json.Obj
           [ ("query", Json.Str a.label);
             ("count", Json.of_int a.count);
             ("total_ms", Json.Num a.total_ms);
             ("min_ms", Json.Num a.min_ms);
             ("max_ms", Json.Num a.max_ms);
             ("mean_ms", Json.Num (a.total_ms /. float_of_int a.count)) ])
       aggs)

type snapshot = {
  s_label : string;
  s_count : int;
  s_total_ms : float;
  s_min_ms : float;
  s_max_ms : float;
}

let snapshots t =
  List.map
    (fun a ->
      { s_label = a.label; s_count = a.count; s_total_ms = a.total_ms;
        s_min_ms = a.min_ms; s_max_ms = a.max_ms })
    (sorted_aggs t)

let escape_label s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Prometheus numbers must not use OCaml's "1." spelling. *)
let prom_float f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

type kind = Counter | Gauge

let family buf kind name samples =
  Printf.bprintf buf "# TYPE %s %s\n" name
    (match kind with Counter -> "counter" | Gauge -> "gauge");
  List.iter
    (fun (labels, value) ->
      if labels = "" then Printf.bprintf buf "%s %s\n" name value
      else Printf.bprintf buf "%s{%s} %s\n" name labels value)
    samples

let gauge buf name value = family buf Gauge name [ ("", value) ]
let counter buf name n = family buf Counter name [ ("", string_of_int n) ]

let to_prometheus ?(labels = "") ~prefix t =
  let buf = Buffer.create 512 in
  let snaps = snapshots t in
  let samples value =
    List.map
      (fun s ->
        ( Printf.sprintf "query=\"%s\"%s" (escape_label s.s_label)
            (if labels = "" then "" else "," ^ labels),
          value s ))
      snaps
  in
  if snaps <> [] then begin
    family buf Counter (prefix ^ "_query_executions_total")
      (samples (fun s -> string_of_int s.s_count));
    family buf Counter (prefix ^ "_query_ms_total")
      (samples (fun s -> prom_float s.s_total_ms))
  end;
  Buffer.contents buf
