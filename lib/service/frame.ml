(* Newline-delimited frame reads that can tell a complete line from a
   stream cut mid-frame. [input_line] cannot: it returns a final
   unterminated line as if it were complete, so a peer dying mid-write
   used to hand the reader a truncated JSON frame that parsed as
   garbage (or worse, as a shorter valid frame).

   A frame moves in bulk: the channel's own buffer is scanned for the
   newline and whole runs are copied out of it, as [input_line] does. *)

let default_max_len = 64 * 1024 * 1024

(* The runtime primitive under [input_line]. It scans the channel's
   buffer for a newline, refilling the buffer while it has room, and
   returns [n > 0] when the next [n] bytes end with a newline, [-n] when
   [n] bytes are buffered without one (the buffer is full, or the
   stream ended after them), and [0] at end of stream with nothing
   buffered. *)
external scan_line : in_channel -> int = "caml_ml_input_scan_line"

let read ?(max_len = default_max_len) ic =
  let skip n = ignore (really_input_string ic n) in
  (* [pieces]: the frame's bytes from earlier buffer fills, newest
     first, [len] bytes in all, copied once into the exact-size frame
     at its end; a frame that fits the channel buffer is copied out
     once and never lands here *)
  let whole pieces = String.concat "" (List.rev pieces) in
  let rec go pieces len oversized =
    let n = scan_line ic in
    if n = 0 then
      if oversized then `Truncated ""
      else if pieces = [] then `Eof
      else `Truncated (whole pieces)
    else if n > 0 then
      if oversized || len + n - 1 > max_len then begin
        skip n;
        `Oversized
      end
      else begin
        let last = really_input_string ic (n - 1) in
        skip 1;
        `Line (if pieces = [] then last else whole (last :: pieces))
      end
    else if oversized || len - n > max_len then begin
      (* keep consuming to the frame boundary, holding nothing, so the
         stream stays in sync and the caller can answer with a clean
         error *)
      skip (-n);
      go [] 0 true
    end
    else go (really_input_string ic (-n) :: pieces) (len - n) false
  in
  go [] 0 false
