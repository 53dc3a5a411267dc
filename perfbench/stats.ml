(* Order statistics and the class-share guard. *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Nearest-rank percentile: the ceil(q·n)-th smallest sample, so p99 of
   1000 samples leaves exactly ten beyond it. *)
let rank q n = max 1 (min n (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))))

let percentile q a =
  let s = sorted a in
  if Array.length s = 0 then nan else s.(rank q (Array.length s) - 1)

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let sum a = Array.fold_left ( +. ) 0. a
let mean a = if Array.length a = 0 then 0. else sum a /. float_of_int (Array.length a)

(* ------------------------------------------------------------------ *)
(* Class shares                                                        *)
(* ------------------------------------------------------------------ *)

type share = { cls : string; count : int; frac : float; med : float }

(* Classes of a sample set, ordered by median latency. *)
let shares (samples : (string * float) array) =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun (c, x) ->
      Hashtbl.replace tbl c (x :: Option.value ~default:[] (Hashtbl.find_opt tbl c)))
    samples;
  let n = float_of_int (Array.length samples) in
  Hashtbl.fold
    (fun cls xs acc ->
      let a = Array.of_list xs in
      { cls; count = Array.length a; frac = float_of_int (Array.length a) /. n;
        med = median a }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare (a.med, a.cls) (b.med, b.cls))

(* A percentile sits near a class boundary when the rank it reads is
   within [margin] samples of a cumulative class edge, ordering classes
   by median latency, and the two classes meeting there differ in
   median by more than 25%: a small drift in class shares then moves
   the percentile from one class to the other. The margin is three
   standard deviations of the edge's position were each request's
   class drawn independently (a binomial count), and at least 10
   samples. Returns the offending edge, if any. *)
let near_boundary q (samples : (string * float) array) =
  let n = Array.length samples in
  let r = rank q n in
  let margin edge =
    let p = float_of_int edge /. float_of_int n in
    max 10. (3. *. sqrt (float_of_int n *. p *. (1. -. p)))
  in
  let rec walk cum = function
    | a :: (b :: _ as rest) ->
      let edge = cum + a.count in
      let distinct = b.med > 1.25 *. a.med in
      if distinct && float_of_int (abs (r - edge)) < margin edge then
        Some
          (Printf.sprintf "p%g at rank %d of %d is %d samples from the %s|%s edge"
             (q *. 100.) r n (abs (r - edge)) a.cls b.cls)
      else walk edge rest
    | _ -> None
  in
  if n = 0 then None else walk 0 (shares samples)
