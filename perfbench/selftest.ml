(* Determinism self-test: replay every workload in-process twice with
   one seed and small counts, and require the counts the benchmark
   reports as deterministic to repeat exactly — request mix, class
   shares, nodes fed, depth, result bytes, maintained and recomputed
   entries, scattered and routed runs, WAL appends and snapshots — and
   every edited document to end with the node count it started with.

     selftest.exe [SEED]      (default 7; pass another to hold one out) *)

open Perfbench
module Json = Fixq_service.Json

let seed = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 7

let signature spec (t : Replay.t) =
  let tbl = Hashtbl.create 32 in
  let add k v = Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  Array.iter
    (fun (r : Replay.record) ->
      let family = r.Replay.r.Spec.family in
      let resp = r.Replay.resp in
      add ("mix " ^ family) 1;
      add ("class " ^ Layers.record_class r) 1;
      add ("nodes_fed " ^ family) resp.Resp.nodes_fed;
      add ("depth " ^ family) resp.Resp.depth;
      add ("result_bytes " ^ family) resp.Resp.result_len;
      List.iter
        (fun (x : Resp.t) ->
          add "maintained" x.Resp.maintained;
          add "recompute" x.Resp.recompute)
        (Layers.patches spec r))
    t.Replay.records;
  let delta path = Layers.stat_delta path (t.Replay.stats_before, t.Replay.stats_after) in
  List.iter
    (fun path -> add (String.concat "." path) (delta path))
    [ [ "scatter_runs" ]; [ "routed_runs" ]; [ "compactions" ];
      [ "durability"; "wal_appends" ]; [ "durability"; "snapshots" ] ];
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

let () =
  let failed = ref false in
  let dir = Filename.concat (Sys.getcwd ()) "selftest-state" in
  List.iter
    (fun name ->
      let spec = Spec.make name ~seed ~runs:60 ~writes:30 in
      let replay k =
        let d = Filename.concat dir (Printf.sprintf "%s-%d" name k) in
        Proc.rm_rf d;
        let t = Replay.run spec ~dir:d ~traced:true in
        Proc.rm_rf d;
        t
      in
      let a = replay 1 and b = replay 2 in
      let sa = signature spec a and sb = signature spec b in
      if sa <> sb then begin
        failed := true;
        Printf.printf "%s: counts differ between two runs of seed %d\n" name seed;
        List.iter
          (fun (k, v) ->
            let v' = Option.value ~default:(-1) (List.assoc_opt k sb) in
            if v <> v' then Printf.printf "  %s: %d then %d\n" k v v')
          sa
      end;
      List.iter
        (fun (uri, before, after) ->
          if before <> after then begin
            failed := true;
            Printf.printf "%s: %s has %s nodes at the end, %s at the start\n" name uri after
              before
          end)
        (a.Replay.nodes @ b.Replay.nodes);
      if a.Replay.nodes = [] then begin
        failed := true;
        Printf.printf "%s: no edited document was counted\n" name
      end;
      Printf.printf "%s: %d requests, %d counts compared\n%!" name
        (Array.length a.Replay.records) (List.length sa))
    Spec.names;
  Proc.rm_rf dir;
  if !failed then exit 1
