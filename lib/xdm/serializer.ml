(* Text without markup characters is returned as is; otherwise clean
   runs are copied whole between the escapes. *)
let escape_gen escape_quote s =
  let n = String.length s in
  let special c = c = '<' || c = '>' || c = '&' || (escape_quote && c = '"') in
  let rec first i =
    if i = n || special (String.unsafe_get s i) then i else first (i + 1)
  in
  let i0 = first 0 in
  if i0 = n then s
  else begin
    let buf = Buffer.create (n + 16) in
    let start = ref 0 in
    for i = i0 to n - 1 do
      let c = String.unsafe_get s i in
      if special c then begin
        Buffer.add_substring buf s !start (i - !start);
        start := i + 1;
        Buffer.add_string buf
          (match c with
          | '<' -> "&lt;"
          | '>' -> "&gt;"
          | '&' -> "&amp;"
          | _ -> "&quot;")
      end
    done;
    Buffer.add_substring buf s !start (n - !start);
    Buffer.contents buf
  end

let escape_text = escape_gen false
let escape_attr = escape_gen true

let to_buffer ?(indent = false) buf (n : Node.t) =
  let pad d = if indent then Buffer.add_string buf (String.make (2 * d) ' ') in
  let nl () = if indent then Buffer.add_char buf '\n' in
  let has_element_content (n : Node.t) =
    Array.length n.Node.children > 0
    && Array.for_all
         (fun (c : Node.t) -> c.Node.kind <> Node.Text)
         n.Node.children
  in
  let rec go d (n : Node.t) =
    match n.Node.kind with
    | Node.Document -> Array.iter (go d) n.Node.children
    | Node.Text -> Buffer.add_string buf (escape_text n.Node.content)
    | Node.Comment ->
      Buffer.add_string buf "<!--";
      Buffer.add_string buf n.Node.content;
      Buffer.add_string buf "-->"
    | Node.Pi ->
      Buffer.add_string buf "<?";
      Buffer.add_string buf (Node.name n);
      if n.Node.content <> "" then begin
        Buffer.add_char buf ' ';
        Buffer.add_string buf n.Node.content
      end;
      Buffer.add_string buf "?>"
    | Node.Attribute ->
      Buffer.add_string buf (Node.name n);
      Buffer.add_string buf "=\"";
      Buffer.add_string buf (escape_attr n.Node.content);
      Buffer.add_char buf '"'
    | Node.Element ->
      Buffer.add_char buf '<';
      Buffer.add_string buf (Node.name n);
      Array.iter
        (fun a ->
          Buffer.add_char buf ' ';
          go d a)
        n.Node.attributes;
      if Array.length n.Node.children = 0 then Buffer.add_string buf "/>"
      else begin
        Buffer.add_char buf '>';
        let structured = has_element_content n in
        Array.iter
          (fun c ->
            if structured then begin
              nl ();
              pad (d + 1)
            end;
            go (d + 1) c)
          n.Node.children;
        if structured then begin
          nl ();
          pad d
        end;
        Buffer.add_string buf "</";
        Buffer.add_string buf (Node.name n);
        Buffer.add_char buf '>'
      end
  in
  go 0 n

let to_string ?indent n =
  let buf = Buffer.create 256 in
  to_buffer ?indent buf n;
  Buffer.contents buf

let seq_to_string ?indent (s : Item.seq) =
  let buf = Buffer.create 256 in
  List.iteri
    (fun i it ->
      if i > 0 then Buffer.add_char buf ' ';
      match it with
      | Item.N n -> to_buffer ?indent buf n
      | Item.A a -> Buffer.add_string buf (escape_text (Atom.to_string a)))
    s;
  Buffer.contents buf
