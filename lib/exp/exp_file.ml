(* Experiment E7 — the quorum replicated file under partition churn
   (Section 3 example 1, and claim C3 on primary partitioning).

   A five-replica file runs under increasing partition churn; the state of
   every live replica is sampled periodically:

   - write availability: the fraction of samples in Normal mode (a quorum
     view, settled) — this is what a primary-partition system offers in
     total;
   - read availability: Normal or Reduced — the extra service the
     partitionable model keeps in minority partitions, at the price of
     staleness, which is also measured (fraction of reads that would have
     returned an outdated version). *)

module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Mode = Evs_core.Mode
module Endpoint = Vs_vsync.Endpoint
module Store = Vs_store.Store
module Go = Vs_apps.Group_object
module Rf = Vs_apps.Replicated_file
module Faults = Vs_harness.Faults
module Table = Vs_stats.Table

type sample = {
  mutable samples : int;
  mutable writable : int;
  mutable readable : int;
  mutable stale : int;
}

let run_churn ~seed ~mean_gap ~duration =
  let sim = Sim.create ~seed () in
  let net = Rf.make_net sim Net.default_config in
  let universe = [ 0; 1; 2; 3; 4 ] in
  let store = Store.create () in
  let file = Rf.uniform_votes ~universe in
  let fleet =
    App_fleet.create sim net ~nodes:universe
      ~spawn:(fun me ->
        Rf.create sim net ~me ~universe
          ~config:Endpoint.default_config ~file ~store ())
      ~kill:Rf.kill ~is_alive:Rf.is_alive ~me:Rf.me
      ~history:(fun f -> Go.history (Rf.obj f))
  in
  let rng = Sim.fork_rng sim in
  (* Partition-only churn isolates the availability question. *)
  App_fleet.run_script fleet
    (Faults.random_script rng ~nodes:universe ~start:0.5 ~duration ~mean_gap
       ~crash_weight:0.2 ~partition_weight:2.0 ());
  (* Steady trickle of writes so staleness is observable. *)
  App_fleet.every fleet ~start:0.4 ~until:duration ~gap:0.1 (fun time live ->
      match List.filter (fun f -> Mode.equal (Rf.mode f) Mode.Normal) live with
      | [] -> ()
      | first_writable :: _ ->
          ignore (Rf.write first_writable (Printf.sprintf "w%f" time)));
  let acc = { samples = 0; writable = 0; readable = 0; stale = 0 } in
  App_fleet.every fleet ~start:0.5 ~until:duration ~gap:0.05 (fun _ live ->
      let max_version =
        List.fold_left (fun m f -> max m (Rf.version f)) 0 live
      in
      List.iter
        (fun f ->
          acc.samples <- acc.samples + 1;
          match Rf.mode f with
          | Mode.Normal ->
              acc.writable <- acc.writable + 1;
              acc.readable <- acc.readable + 1
          | Mode.Reduced ->
              acc.readable <- acc.readable + 1;
              if Rf.version f < max_version then acc.stale <- acc.stale + 1
          | Mode.Settling -> ())
        live);
  ignore (Sim.run ~until:(duration +. 2.0) sim);
  acc

let run ?(quick = false) () =
  let duration = if quick then 5.0 else 20.0 in
  let churn_levels =
    if quick then [ ("moderate", 1.0) ]
    else [ ("light", 3.0); ("moderate", 1.0); ("heavy", 0.4) ]
  in
  let table =
    Table.create
      ~title:
        "E7 / example 1 & claim C3 — replicated file availability under \
         partition churn (5 replicas, majority quorum)"
      ~columns:
        [
          "churn";
          "mean gap (s)";
          "write-available";
          "read-available";
          "primary-partition service";
          "stale reads (of R-mode)";
        ]
  in
  List.iteri
    (fun i (label, mean_gap) ->
      let acc = run_churn ~seed:(Int64.of_int (700 + i)) ~mean_gap ~duration in
      let frac n = float_of_int n /. float_of_int (max 1 acc.samples) in
      let reduced = acc.readable - acc.writable in
      Table.add_row table
        [
          label;
          Table.ffloat mean_gap;
          Table.fpct (frac acc.writable);
          Table.fpct (frac acc.readable);
          (* A primary-partition system serves nothing outside the quorum:
             its read and write availability both equal our write column. *)
          Table.fpct (frac acc.writable);
          (if reduced = 0 then "-"
           else Table.fpct (float_of_int acc.stale /. float_of_int reduced));
        ])
    churn_levels;
  table

let tables ?quick () = [ run ?quick () ]
