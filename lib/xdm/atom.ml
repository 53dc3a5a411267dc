type t =
  | Int of int
  | Dbl of float
  | Str of string
  | Bool of bool

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

let to_number = function
  | Int i -> float_of_int i
  | Dbl f -> f
  | Str s -> (
    match float_of_string_opt (String.trim s) with
    | Some f -> f
    | None -> type_error "cannot convert %S to a number" s)
  | Bool _ -> type_error "cannot convert a boolean to a number"

let to_int = function
  | Int i -> i
  | Dbl f when Float.is_integer f -> int_of_float f
  | Str s as a -> (
    match int_of_string_opt (String.trim s) with
    | Some i -> i
    | None -> type_error "cannot convert %S to an integer" (to_number a |> string_of_float))
  | a -> type_error "expected an integer, got %f" (to_number a)

let to_string = function
  | Int i -> string_of_int i
  | Dbl f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.0f" f
    else string_of_float f
  | Str s -> s
  | Bool b -> if b then "true" else "false"

let to_bool = function
  | Bool b -> b
  | Int i -> i <> 0
  | Dbl f -> f <> 0.0 && not (Float.is_nan f)
  | Str s -> String.length s > 0

let compare_value a b =
  match (a, b) with
  | (Int x, Int y) -> Int.compare x y
  | ((Int _ | Dbl _), (Int _ | Dbl _)) -> Float.compare (to_number a) (to_number b)
  | (Str x, Str y) -> String.compare x y
  | (Bool x, Bool y) -> Bool.compare x y
  | (Str x, (Int _ | Dbl _)) -> Float.compare (to_number (Str x)) (to_number b)
  | ((Int _ | Dbl _), Str y) -> Float.compare (to_number a) (to_number (Str y))
  | (Bool _, _) | (_, Bool _) ->
    type_error "cannot compare a boolean with a non-boolean"

let equal_value a b =
  match (a, b) with
  | (Str x, Str y) -> String.equal x y
  | _ -> ( try compare_value a b = 0 with Type_error _ -> false)

let pp ppf a =
  match a with
  | Str s -> Format.fprintf ppf "%S" s
  | _ -> Format.pp_print_string ppf (to_string a)
