(* Escape tables: [subst.(c)] is what byte [c] becomes, [""] for a
   byte copied as is, and [flag.[c]] is nonzero where it is not, so the
   scan tests one byte. *)
type table = { flag : string; subst : string array }

let table f =
  let subst = Array.init 256 (fun i -> f (Char.chr i)) in
  { flag = String.init 256 (fun i -> if subst.(i) = "" then '\000' else '\001'); subst }

let json_byte = function
  | '"' -> "\\\""
  | '\\' -> "\\\\"
  | '\n' -> "\\n"
  | '\r' -> "\\r"
  | '\t' -> "\\t"
  | '\b' -> "\\b"
  | '\012' -> "\\f"
  | c when c < ' ' -> Printf.sprintf "\\u%04x" (Char.code c)
  | _ -> ""

let markup_byte ~quote = function
  | '<' -> "&lt;"
  | '>' -> "&gt;"
  | '&' -> "&amp;"
  | '"' when quote -> "&quot;"
  | _ -> ""

(* Markup escaping then JSON escaping, fused: no entity holds a byte
   JSON escapes. *)
let markup_json_byte ~quote c =
  match markup_byte ~quote c with "" -> json_byte c | e -> e

let json_table = table json_byte
let text_table = table (markup_byte ~quote:false)
let attr_table = table (markup_byte ~quote:true)
let text_json_table = table (markup_json_byte ~quote:false)
let attr_json_table = table (markup_json_byte ~quote:true)

let special tbl c = String.unsafe_get tbl.flag (Char.code c) <> '\000'

(* Clean runs are copied whole between the escapes. *)
let escape_into tbl buf s =
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if special tbl c then begin
      Buffer.add_substring buf s !start (i - !start);
      Buffer.add_string buf (Array.unsafe_get tbl.subst (Char.code c));
      start := i + 1
    end
  done;
  Buffer.add_substring buf s !start (n - !start)

let json_escape_to = escape_into json_table

(* Text without special bytes is returned as is. *)
let escape tbl s =
  let n = String.length s in
  let rec first i =
    if i = n || special tbl (String.unsafe_get s i) then i else first (i + 1)
  in
  if first 0 = n then s
  else begin
    let buf = Buffer.create (n + 16) in
    escape_into tbl buf s;
    Buffer.contents buf
  end

let escape_text = escape text_table
let escape_attr = escape attr_table

(* Where the walk writes: plain XML, or XML JSON-escaped as it is
   written; indented or not. *)
type sink = { buf : Buffer.t; json : bool; indent : bool }

let raw k s =
  if k.json then escape_into json_table k.buf s else Buffer.add_string k.buf s

let text k s = escape_into (if k.json then text_json_table else text_table) k.buf s
let attr k s = escape_into (if k.json then attr_json_table else attr_table) k.buf s
let quote k = Buffer.add_string k.buf (if k.json then "\\\"" else "\"")

let newline k d =
  raw k "\n";
  Buffer.add_string k.buf (String.make (2 * d) ' ')

(* Indentation goes only between the children of an element without
   text children: text nodes suppress it. *)
let has_element_content (kids : Node.t array) =
  Array.length kids > 0
  && Array.for_all (fun (c : Node.t) -> c.Node.kind <> Node.Text) kids

(* Loops over the attribute and child arrays: the walk allocates
   nothing but the bytes it writes. *)
let rec write k d (n : Node.t) =
  match n.Node.kind with
  | Node.Document ->
    let kids = n.Node.children in
    for i = 0 to Array.length kids - 1 do
      write k d kids.(i)
    done
  | Node.Text -> text k n.Node.content
  | Node.Comment ->
    Buffer.add_string k.buf "<!--";
    raw k n.Node.content;
    Buffer.add_string k.buf "-->"
  | Node.Pi ->
    Buffer.add_string k.buf "<?";
    raw k (Node.name n);
    if n.Node.content <> "" then begin
      Buffer.add_char k.buf ' ';
      raw k n.Node.content
    end;
    Buffer.add_string k.buf "?>"
  | Node.Attribute ->
    raw k (Node.name n);
    Buffer.add_char k.buf '=';
    quote k;
    attr k n.Node.content;
    quote k
  | Node.Element ->
    Buffer.add_char k.buf '<';
    raw k (Node.name n);
    let attrs = n.Node.attributes in
    for i = 0 to Array.length attrs - 1 do
      Buffer.add_char k.buf ' ';
      write k d attrs.(i)
    done;
    let kids = n.Node.children in
    if Array.length kids = 0 then Buffer.add_string k.buf "/>"
    else begin
      Buffer.add_char k.buf '>';
      let structured = k.indent && has_element_content kids in
      for i = 0 to Array.length kids - 1 do
        if structured then newline k (d + 1);
        write k (d + 1) kids.(i)
      done;
      if structured then newline k d;
      Buffer.add_string k.buf "</";
      raw k (Node.name n);
      Buffer.add_char k.buf '>'
    end

let write_seq k (s : Item.seq) =
  List.iteri
    (fun i it ->
      if i > 0 then Buffer.add_char k.buf ' ';
      match it with
      | Item.N n -> write k 0 n
      | Item.A a -> text k (Atom.to_string a))
    s

let to_buffer ?(indent = false) buf n = write { buf; json = false; indent } 0 n

let to_string ?indent n =
  let buf = Buffer.create 256 in
  to_buffer ?indent buf n;
  Buffer.contents buf

let seq_to_string ?(indent = false) s =
  let buf = Buffer.create 256 in
  write_seq { buf; json = false; indent } s;
  Buffer.contents buf

(* Nodes and attributes in the subtree of [n]. *)
let rec weight (n : Node.t) =
  Array.fold_left (fun k c -> k + weight c)
    (1 + Array.length n.Node.attributes) n.Node.children

(* The buffer starts at about 16 bytes a node, instead of doubling from
   a small start: each doubling past a few KB is a major allocation. *)
let seq_to_json s =
  let nodes =
    List.fold_left
      (fun k -> function Item.N n -> k + weight n | Item.A _ -> k + 1) 0 s
  in
  let buf = Buffer.create (16 * nodes + 2) in
  Buffer.add_char buf '"';
  write_seq { buf; json = true; indent = false } s;
  Buffer.add_char buf '"';
  Buffer.contents buf
