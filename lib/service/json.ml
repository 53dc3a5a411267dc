type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string
  | Raw_buffer of Buffer.t
  | Spliced of string * string * t

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let escape_to = Fixq_xdm.Serializer.json_escape_to

let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else if Float.is_nan f || Float.abs f = Float.infinity then "null"
  else
    (* shortest representation that round-trips *)
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* A verbatim piece: part of a string, or a buffer's contents. *)
type piece = Slice of string * int | Buf of Buffer.t

let piece_length = function Slice (_, len) -> len | Buf b -> Buffer.length b

(* The one walk behind both printers. Everything goes to [buf] except
   the verbatim pieces, which [raw] places: into [buf] for a string, or
   straight into a channel once [buf]'s bytes are out. *)
let rec write ~raw buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> Buffer.add_string buf (number_to_string f)
  | Raw s -> raw (Slice (s, String.length s))
  | Raw_buffer b -> raw (Buf b)
  | Spliced (line, key, value) ->
    let n = String.length line in
    if n < 2 || line.[0] <> '{' || line.[n - 1] <> '}' then raw (Slice (line, n))
    else begin
      (* an object, empty only as "{}": all but its brace, the member *)
      raw (Slice (line, n - 1));
      if n > 2 then Buffer.add_char buf ',';
      Buffer.add_char buf '"';
      escape_to buf key;
      Buffer.add_string buf "\":";
      write ~raw buf value;
      Buffer.add_char buf '}'
    end
  | Str s ->
    Buffer.add_char buf '"';
    escape_to buf s;
    Buffer.add_char buf '"'
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        write ~raw buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (name, value) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        escape_to buf name;
        Buffer.add_string buf "\":";
        write ~raw buf value)
      fields;
    Buffer.add_char buf '}'

(* Raw pieces are the long part of a response. The walk sets them
   aside, each with the length of [buf] where it belongs, and they are
   blitted into the result once its size is known: one copy each. *)
let to_string j =
  let buf = Buffer.create 256 and pieces = ref [] and extra = ref 0 in
  write buf j ~raw:(fun p ->
      pieces := (Buffer.length buf, p) :: !pieces;
      extra := !extra + piece_length p);
  let out = Bytes.create (Buffer.length buf + !extra) in
  let (at, from) =
    List.fold_left
      (fun (at, from) (mark, p) ->
        Buffer.blit buf from out at (mark - from);
        let at = at + mark - from in
        (match p with
        | Slice (s, len) -> Bytes.blit_string s 0 out at len
        | Buf b -> Buffer.blit b 0 out at (Buffer.length b));
        (at + piece_length p, mark))
      (0, 0) (List.rev !pieces)
  in
  Buffer.blit buf from out at (Buffer.length buf - from);
  Bytes.unsafe_to_string out

let output oc j =
  let buf = Buffer.create 256 in
  write buf j ~raw:(fun p ->
      Buffer.output_buffer oc buf;
      Buffer.clear buf;
      match p with
      | Slice (s, len) -> output_substring oc s 0 len
      | Buf b -> Buffer.output_buffer oc b);
  Buffer.output_buffer oc buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type parser_state = { src : string; mutable pos : int; mutable depth : int }

(* Containers may nest at most this deep. parse_value recurses per
   nesting level, so without a cap a hostile frame of a few hundred
   thousand '['s overflows the stack — an exception the wire loop's
   [Parse_error] handler cannot contain. *)
let max_nesting = 512

let fail st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let rec go () =
    match peek st with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      go ()
    | _ -> ()
  in
  go ()

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let parse_literal st word value =
  if
    st.pos + String.length word <= String.length st.src
    && String.sub st.src st.pos (String.length word) = word
  then begin
    st.pos <- st.pos + String.length word;
    value
  end
  else fail st (Printf.sprintf "expected '%s'" word)

(* decode \uXXXX (with surrogate pairs) to UTF-8 bytes *)
let add_unicode st buf =
  let hex4 () =
    if st.pos + 4 > String.length st.src then fail st "truncated \\u escape";
    let s = String.sub st.src st.pos 4 in
    st.pos <- st.pos + 4;
    match int_of_string_opt ("0x" ^ s) with
    | Some n -> n
    | None -> fail st "invalid \\u escape"
  in
  let cp = hex4 () in
  let cp =
    if cp >= 0xD800 && cp <= 0xDBFF then begin
      (* high surrogate: require a following \uXXXX low surrogate *)
      if
        st.pos + 2 <= String.length st.src
        && st.src.[st.pos] = '\\'
        && st.src.[st.pos + 1] = 'u'
      then begin
        st.pos <- st.pos + 2;
        let lo = hex4 () in
        if lo >= 0xDC00 && lo <= 0xDFFF then
          0x10000 + (((cp - 0xD800) lsl 10) lor (lo - 0xDC00))
        else fail st "unpaired surrogate"
      end
      else fail st "unpaired surrogate"
    end
    else cp
  in
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
      | None -> fail st "unterminated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' -> add_unicode st buf
        | c -> fail st (Printf.sprintf "bad escape '\\%c'" c)));
      go ()
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c -> is_num_char c | None -> false) do
    advance st
  done;
  let s = String.sub st.src start (st.pos - start) in
  match float_of_string_opt s with
  | Some f -> Num f
  | None -> fail st (Printf.sprintf "bad number %S" s)

let rec parse_value st =
  if st.depth >= max_nesting then
    fail st (Printf.sprintf "nesting deeper than %d" max_nesting);
  st.depth <- st.depth + 1;
  let v = parse_value_inner st in
  st.depth <- st.depth - 1;
  v

and parse_value_inner st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let fields = ref [] in
      let rec fields_loop () =
        skip_ws st;
        let name = parse_string st in
        skip_ws st;
        expect st ':';
        let value = parse_value st in
        fields := (name, value) :: !fields;
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          fields_loop ()
        | Some '}' -> advance st
        | _ -> fail st "expected ',' or '}'"
      in
      fields_loop ();
      Obj (List.rev !fields)
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let items = ref [] in
      let rec items_loop () =
        let v = parse_value st in
        items := v :: !items;
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          items_loop ()
        | Some ']' -> advance st
        | _ -> fail st "expected ',' or ']'"
      in
      items_loop ();
      List (List.rev !items)
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character '%c'" c)

let parse src =
  let st = { src; pos = 0; depth = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length src then fail st "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member name = function
  | Obj fields -> Option.value ~default:Null (List.assoc_opt name fields)
  | _ -> Null

let str_opt = function Str s -> Some s | _ -> None
let num_opt = function Num f -> Some f | _ -> None

let int_opt = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let bool_opt = function Bool b -> Some b | _ -> None
let of_int n = Num (float_of_int n)
let of_bool_opt = function None -> Null | Some b -> Bool b
let of_string_opt = function None -> Null | Some s -> Str s
