type iteration = {
  fed : int;
  produced : int;
  result_size : int;
  round_ms : float;
}

type snapshot = { snap_fed : int; snap_calls : int; snap_depth : int }

(* A round costs no allocation once the arrays have grown to the run's
   depth: its numbers go into [rounds] (fed, produced, result size) and
   [round_ms], and the clock's two floats stay unboxed in [clock]. The
   [iteration] list is built only when {!last_run} asks. *)
type t = {
  mutable total_fed : int;
  mutable total_calls : int;
  mutable max_depth : int;
  mutable rounds : int array;
  mutable round_ms : float array;
  mutable run_len : int;  (** rounds of the current run *)
  mutable iteration_hook : (unit -> unit) option;
  clock : float array;  (** [| start of the current round; total ms |] *)
}

let now () = Unix.gettimeofday ()

let create () =
  { total_fed = 0; total_calls = 0; max_depth = 0; rounds = Array.make 24 0;
    round_ms = Array.make 8 0.0; run_len = 0; iteration_hook = None;
    clock = [| now (); 0.0 |] }

let reset t =
  t.total_fed <- 0;
  t.total_calls <- 0;
  t.max_depth <- 0;
  t.run_len <- 0;
  t.clock.(0) <- now ();
  t.clock.(1) <- 0.0

let start_run t =
  t.run_len <- 0;
  t.clock.(0) <- now ()

let set_iteration_hook t hook = t.iteration_hook <- hook

(* Both engines report every fixpoint round here (the µ/µ∆ evaluator
   shares the interpreter's Stats.t), so this is the single place where
   a chaos schedule can fault "mid-round" deterministically: a
   simulated allocation failure, a stall, or a worker crash between
   rounds N and N+1. *)
let round_point = Fixq_chaos.point "fixpoint.round"

let chaos_round_point () =
  match Fixq_chaos.fire round_point with
  | None | Some (Fixq_chaos.Drop | Fixq_chaos.Truncate) -> ()
  | Some (Fixq_chaos.Delay s) -> Fixq_chaos.sleep s
  | Some Fixq_chaos.Oom -> raise Out_of_memory
  | Some Fixq_chaos.Kill -> Fixq_chaos.kill_self ()

let record_iteration t ~fed ~produced ~result_size =
  chaos_round_point ();
  let stamp = now () in
  let round_ms = (stamp -. t.clock.(0)) *. 1000.0 in
  t.clock.(0) <- stamp;
  t.clock.(1) <- t.clock.(1) +. round_ms;
  t.total_fed <- t.total_fed + fed;
  t.total_calls <- t.total_calls + 1;
  let i = t.run_len in
  if i = Array.length t.round_ms then begin
    t.round_ms <- Array.append t.round_ms (Array.make i 0.0);
    t.rounds <- Array.append t.rounds (Array.make (3 * i) 0)
  end;
  t.rounds.(3 * i) <- fed;
  t.rounds.((3 * i) + 1) <- produced;
  t.rounds.((3 * i) + 2) <- result_size;
  t.round_ms.(i) <- round_ms;
  t.run_len <- i + 1;
  if t.run_len > t.max_depth then t.max_depth <- t.run_len;
  match t.iteration_hook with None -> () | Some hook -> hook ()

let snapshot t =
  { snap_fed = t.total_fed; snap_calls = t.total_calls;
    snap_depth = t.max_depth }

let nodes_fed t = t.total_fed
let depth t = t.max_depth
let payload_calls t = t.total_calls
let last_run t =
  List.init t.run_len (fun i ->
      { fed = t.rounds.(3 * i); produced = t.rounds.((3 * i) + 1);
        result_size = t.rounds.((3 * i) + 2); round_ms = t.round_ms.(i) })

let total_ms t = t.clock.(1)

let pp ppf t =
  Format.fprintf ppf "fed=%d calls=%d depth=%d" t.total_fed t.total_calls
    t.max_depth
