type fault =
  | Drop
  | Delay of float
  | Truncate
  | Kill
  | Oom

type event = { point : string; fault : fault; seq : int }

let points =
  [ "transport.send"; "transport.recv"; "supervisor.ping";
    "server.handle"; "fixpoint.round"; "store.read";
    "store.patch"; "store.wal"; "store.snapshot"; "coordinator.rebalance" ]

let fault_to_string = function
  | Drop -> "drop"
  | Delay s -> Printf.sprintf "delay%d" (int_of_float (s *. 1000.0 +. 0.5))
  | Truncate -> "truncate"
  | Kill -> "kill"
  | Oom -> "oom"

(* splitmix64: tiny, seedable, statistically fine for fault scheduling, and
   independent of any global Random state the host program may use. *)
module Rng = struct
  type t = { mutable state : int64 }

  let create seed = { state = seed }

  let next t =
    t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  (* uniform float in [0, 1) from the top 53 bits *)
  let float t =
    let bits = Int64.shift_right_logical (next t) 11 in
    Int64.to_float bits *. (1.0 /. 9007199254740992.0)
end

type rule = {
  fault : fault;
  prob : float;
  nth : int option;  (* fire only on the n-th arrival (1-based) *)
  max : int option;  (* cap total firings *)
  rng : Rng.t;
  mutable fired_count : int;
}

type point_state = {
  rules : rule list;
  mutable arrivals : int;
}

let enabled = ref false
let mutex = Mutex.create ()
let table : (string, point_state) Hashtbl.t = Hashtbl.create 16
let fired_total = ref 0
let event_log : event list ref = ref []
let log_fd : Unix.file_descr option ref = ref None
let log_path : string option ref = ref None

let close_log () =
  (match !log_fd with
   | Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ())
   | None -> ());
  log_fd := None

let set_log path =
  Mutex.lock mutex;
  close_log ();
  log_path := path;
  (match path with
   | Some p ->
     (try
        log_fd :=
          Some (Unix.openfile p [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
                  0o644)
      with Unix.Unix_error _ -> log_fd := None)
   | None -> ());
  Mutex.unlock mutex

(* One atomic [write] per event so entries survive SIGKILL mid-run. *)
let log_event ev =
  match !log_fd with
  | None -> ()
  | Some fd ->
    let line =
      Printf.sprintf "%d %d %s %s\n" (Unix.getpid ()) ev.seq ev.point
        (fault_to_string ev.fault)
    in
    let b = Bytes.of_string line in
    (try ignore (Unix.write fd b 0 (Bytes.length b))
     with Unix.Unix_error _ -> ())

let reset_locked () =
  Hashtbl.reset table;
  enabled := false;
  fired_total := 0;
  event_log := []

let reset () =
  Mutex.lock mutex;
  reset_locked ();
  close_log ();
  log_path := None;
  Mutex.unlock mutex

let active () = !enabled

(* Distinct PRNG stream per rule: mix the global seed with the point name
   and the rule's index so adding a rule never perturbs the others. *)
let rule_seed ~seed ~point ~index =
  let h = Hashtbl.hash (point, index) in
  Int64.logxor (Int64.of_int seed)
    (Int64.mul (Int64.of_int (h + 1)) 0x9E3779B97F4A7C15L)

let parse_kind s =
  match s with
  | "drop" -> Ok Drop
  | "truncate" -> Ok Truncate
  | "kill" -> Ok Kill
  | "oom" -> Ok Oom
  | _ ->
    let n = String.length s in
    if n > 5 && String.sub s 0 5 = "delay" then
      match int_of_string_opt (String.sub s 5 (n - 5)) with
      | Some ms when ms >= 0 -> Ok (Delay (float_of_int ms /. 1000.0))
      | _ -> Error (Printf.sprintf "chaos: bad delay %S" s)
    else Error (Printf.sprintf "chaos: unknown fault kind %S" s)

(* <kind>[:<prob>][@<nth>][#<max>] — suffixes may appear in any order. *)
let parse_rule_spec spec =
  let buf = Buffer.create 8 in
  let prob = ref 1.0 and nth = ref None and max = ref None in
  let err = ref None in
  let n = String.length spec in
  let rec take_num i =
    if i < n && (match spec.[i] with
        | '0' .. '9' | '.' | 'e' | 'E' | '-' | '+' -> true
        | _ -> false)
    then take_num (i + 1)
    else i
  in
  let rec go i =
    if i >= n || !err <> None then ()
    else
      match spec.[i] with
      | ':' | '@' | '#' ->
        let stop = take_num (i + 1) in
        let num = String.sub spec (i + 1) (stop - i - 1) in
        (match spec.[i] with
         | ':' ->
           (match float_of_string_opt num with
            | Some p when p >= 0.0 && p <= 1.0 -> prob := p
            | _ -> err := Some (Printf.sprintf "chaos: bad probability %S" num))
         | '@' ->
           (match int_of_string_opt num with
            | Some k when k >= 1 -> nth := Some k
            | _ -> err := Some (Printf.sprintf "chaos: bad @nth %S" num))
         | _ ->
           (match int_of_string_opt num with
            | Some k when k >= 1 -> max := Some k
            | _ -> err := Some (Printf.sprintf "chaos: bad #max %S" num)));
        go stop
      | c ->
        Buffer.add_char buf c;
        go (i + 1)
  in
  go 0;
  match !err with
  | Some e -> Error e
  | None ->
    (match parse_kind (Buffer.contents buf) with
     | Error e -> Error e
     | Ok fault -> Ok (fault, !prob, !nth, !max))

let configure spec =
  let items =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let seed = ref 0 in
  let parsed = ref [] in  (* (point, fault, prob, nth, max) newest first *)
  let error = ref None in
  List.iter
    (fun item ->
       if !error = None then
         match String.index_opt item '=' with
         | None ->
           error := Some (Printf.sprintf "chaos: expected key=value in %S" item)
         | Some eq ->
           let key = String.sub item 0 eq in
           let value =
             String.sub item (eq + 1) (String.length item - eq - 1)
           in
           if key = "seed" then
             match int_of_string_opt value with
             | Some s -> seed := s
             | None -> error := Some (Printf.sprintf "chaos: bad seed %S" value)
           else if List.mem key points then
             match parse_rule_spec value with
             | Ok (fault, prob, nth, max) ->
               parsed := (key, fault, prob, nth, max) :: !parsed
             | Error e -> error := Some e
           else
             error := Some (Printf.sprintf "chaos: unknown point %S" key))
    items;
  match !error with
  | Some e -> Error e
  | None ->
    Mutex.lock mutex;
    reset_locked ();
    let index = Hashtbl.create 8 in  (* point -> next rule index *)
    List.iter
      (fun (point, fault, prob, nth, max) ->
         let i =
           match Hashtbl.find_opt index point with Some i -> i | None -> 0
         in
         Hashtbl.replace index point (i + 1);
         let rule =
           { fault; prob; nth; max;
             rng = Rng.create (rule_seed ~seed:!seed ~point ~index:i);
             fired_count = 0 }
         in
         let st =
           match Hashtbl.find_opt table point with
           | Some st -> st
           | None ->
             let st = { rules = []; arrivals = 0 } in
             Hashtbl.replace table point st;
             st
         in
         Hashtbl.replace table point { st with rules = st.rules @ [ rule ] })
      (List.rev !parsed);
    if Hashtbl.length table > 0 then enabled := true;
    Mutex.unlock mutex;
    Ok ()

type point = string

let point name =
  if not (List.mem name points) then
    invalid_arg (Printf.sprintf "Fixq_chaos.check: unknown point %S" name);
  name

let fire point =
  if not !enabled then None
  else begin
    Mutex.lock mutex;
    let result =
      match Hashtbl.find_opt table point with
      | None -> None
      | Some st ->
        st.arrivals <- st.arrivals + 1;
        let arrival = st.arrivals in
        let rec first_firing = function
          | [] -> None
          | rule :: rest ->
            let capped =
              match rule.max with Some m -> rule.fired_count >= m | None -> false
            in
            let due =
              match rule.nth with Some n -> arrival = n | None -> true
            in
            (* Always advance the PRNG for probabilistic rules so firing
               positions depend only on the seed, not on other rules. *)
            let roll =
              if rule.prob >= 1.0 then 0.0 else Rng.float rule.rng
            in
            if (not capped) && due && roll < rule.prob then begin
              rule.fired_count <- rule.fired_count + 1;
              Some rule.fault
            end
            else first_firing rest
        in
        first_firing st.rules
    in
    (match result with
     | Some fault ->
       incr fired_total;
       let ev = { point; fault; seq = !fired_total } in
       event_log := ev :: !event_log;
       log_event ev
     | None -> ());
    Mutex.unlock mutex;
    result
  end

let check name = fire (point name)

let fired () = !fired_total
let events () = List.rev !event_log

let sleep s = if s > 0.0 then Unix.sleepf s

let kill_self () =
  Unix.kill (Unix.getpid ()) Sys.sigkill;
  (* unreachable, but keeps the return type open *)
  assert false
