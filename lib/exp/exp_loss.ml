(* Experiment E11 — loss tolerance of the control plane.

   The paper's VS spec assumes reliable multicast over asynchronous,
   partitionable links; our simulated links also drop and duplicate.  The
   reliable-delivery layer (retry with exponential backoff for Propose /
   Flush_ack / Install / To_request) and peer-served retransmits are what
   close that gap.  This experiment sweeps drop/dup probability x group
   size: each run boots n singletons on a lossy network, timestamps the
   first common full view, then drives random FIFO + total-order traffic
   through a crash/recover cycle and checks the whole run against
   Properties 2.1-2.3 (Agreement / Uniqueness / Integrity).  The table
   reports installation latency, retry/retransmit work and the oracle
   verdict per cell, aggregated over seeds. *)

module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Cluster = Vs_harness.Vsync_cluster
module Oracle = Vs_harness.Oracle
module Faults = Vs_harness.Faults
module Table = Vs_stats.Table

let n_seeds = 5

type sample = {
  formed_at : float; (* first common full view; infinity when never *)
  final_stable : bool;
  ctl_retries : int;
  retransmits : int;
  peer_retransmits : int;
  agreement : int;
  uniqueness : int;
  integrity : int;
}

let run_once ~n ~drop ~dup ~seed =
  let net_config =
    { Net.default_config with Net.drop_prob = drop; Net.dup_prob = dup }
  in
  let c = Cluster.create ~seed ~net_config ~n () in
  let formed_at = Cluster.await_stable_view c ~step:0.05 ~deadline:10.0 in
  if formed_at < infinity then begin
    (* Exercise the data path and a flush on the lossy links: traffic
       around a crash/recover of the highest node. *)
    let now = Sim.now (Cluster.sim c) in
    Cluster.run_script c
      [ (now +. 0.6, Faults.Crash (n - 1)); (now +. 1.4, Faults.Recover (n - 1)) ];
    Cluster.pump_traffic c ~start:(now +. 0.1) ~until:(now +. 2.0)
      ~mean_gap:0.02;
    Cluster.run c ~until:(now +. 4.5)
  end;
  let st = Cluster.stats_total c in
  let find what = List.assoc what (Oracle.check_summary (Cluster.oracle c)) in
  {
    formed_at;
    final_stable = Cluster.stable_view_reached c;
    ctl_retries = st.Vs_vsync.Endpoint.ctl_retries;
    retransmits = st.Vs_vsync.Endpoint.retransmits;
    peer_retransmits = st.Vs_vsync.Endpoint.peer_retransmits;
    agreement = find "agreement";
    uniqueness = find "uniqueness";
    integrity = find "integrity";
  }

let run_cell ~n ~drop ~dup ~cell =
  List.init n_seeds (fun s ->
      run_once ~n ~drop ~dup ~seed:(Int64.of_int ((1000 * (cell + 1)) + s)))

let run ?(quick = false) () =
  let ns = if quick then [ 6 ] else [ 3; 6 ] in
  let drops = if quick then [ 0.0; 0.2 ] else [ 0.0; 0.05; 0.1; 0.2 ] in
  let dups = [ 0.0; 0.1 ] in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E11 — control plane under loss/duplication (%d seeds per cell)"
           n_seeds)
      ~columns:
        [
          "n";
          "drop";
          "dup";
          "formed";
          "mean latency (s)";
          "max latency (s)";
          "ctl retries";
          "retransmits (peer)";
          "A/U/I violations";
          "verdict";
        ]
  in
  let cell = ref 0 in
  List.iter
    (fun n ->
      List.iter
        (fun drop ->
          List.iter
            (fun dup ->
              incr cell;
              let samples = run_cell ~n ~drop ~dup ~cell:!cell in
              let formed =
                List.filter (fun s -> s.formed_at < infinity) samples
              in
              let latencies = List.map (fun s -> s.formed_at) formed in
              let mean_latency =
                match latencies with
                | [] -> nan
                | ls ->
                    List.fold_left ( +. ) 0. ls /. float_of_int (List.length ls)
              in
              let max_latency =
                List.fold_left Float.max neg_infinity latencies
              in
              let sum f = List.fold_left (fun a s -> a + f s) 0 samples in
              let agreement = sum (fun s -> s.agreement) in
              let uniqueness = sum (fun s -> s.uniqueness) in
              let integrity = sum (fun s -> s.integrity) in
              let all_stable = List.for_all (fun s -> s.final_stable) samples in
              let ok =
                List.length formed = n_seeds
                && all_stable
                && agreement + uniqueness + integrity = 0
              in
              Table.add_row table
                [
                  Table.fint n;
                  Table.ffloat ~decimals:2 drop;
                  Table.ffloat ~decimals:2 dup;
                  Printf.sprintf "%d/%d" (List.length formed) n_seeds;
                  Table.ffloat ~decimals:3 mean_latency;
                  Table.ffloat ~decimals:3 max_latency;
                  Table.fint (sum (fun s -> s.ctl_retries));
                  Printf.sprintf "%d (%d)"
                    (sum (fun s -> s.retransmits))
                    (sum (fun s -> s.peer_retransmits));
                  Printf.sprintf "%d/%d/%d" agreement uniqueness integrity;
                  (if ok then "ok" else "FAIL");
                ])
            dups)
        drops)
    ns;
  table

let tables ?quick () = [ run ?quick () ]
