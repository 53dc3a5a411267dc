type value = S of string | I of int

type table = { columns : string list; rows : value list list }

type t = (string, table) Hashtbl.t

let create () : t = Hashtbl.create 8
let add_table t name table = Hashtbl.replace t (String.lowercase_ascii name) table
let find_table t name = Hashtbl.find_opt t (String.lowercase_ascii name)

let value_equal a b =
  match (a, b) with
  | (S x, S y) -> String.equal x y
  | (I x, I y) -> Int.equal x y
  | (S x, I y) | (I y, S x) -> (
    match int_of_string_opt x with Some v -> v = y | None -> false)

let pp_value ppf = function
  | S s -> Format.fprintf ppf "'%s'" s
  | I i -> Format.pp_print_int ppf i

let pp_table ppf t =
  Format.fprintf ppf "@[<v>%s@," (String.concat " | " t.columns);
  List.iter
    (fun row ->
      Format.fprintf ppf "%s@,"
        (String.concat " | "
           (List.map (Format.asprintf "%a" pp_value) row)))
    t.rows;
  Format.fprintf ppf "@]"

let canonical row =
  List.map (function S s -> "s:" ^ s | I i -> "i:" ^ string_of_int i) row
  |> String.concat "\x00"

let distinct t =
  let seen = Hashtbl.create 64 in
  { t with
    rows =
      List.filter
        (fun row ->
          let k = canonical row in
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.add seen k ();
            true
          end)
        t.rows }

let set_equal a b =
  let key_set t =
    let s = Hashtbl.create 64 in
    List.iter (fun row -> Hashtbl.replace s (canonical row) ()) t.rows;
    s
  in
  let sa = key_set a and sb = key_set b in
  Hashtbl.length sa = Hashtbl.length sb
  && Hashtbl.fold (fun k () acc -> acc && Hashtbl.mem sb k) sa true

let difference a b =
  let forbidden = Hashtbl.create 64 in
  List.iter (fun row -> Hashtbl.replace forbidden (canonical row) ()) b.rows;
  { a with
    rows = List.filter (fun row -> not (Hashtbl.mem forbidden (canonical row))) a.rows
  }
