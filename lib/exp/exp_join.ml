(* Experiment E4 — claim C1: merging two partitions of k members each under
   batch admission takes a single view change, while the Isis-style
   one-member-at-a-time restriction costs on the order of k view changes in
   each partition (~2k extra installation events in total).

   Two clusters of 2k nodes are booted under a partition into two halves;
   once both halves are stable the partition heals and we count the view
   installations and the virtual time needed to reach the merged view. *)

module Sim = Vs_sim.Sim
module Endpoint = Vs_vsync.Endpoint
module Cluster = Vs_harness.Cluster
module Oracle = Vs_harness.Oracle
module Faults = Vs_harness.Faults
module Table = Vs_stats.Table

type sample = {
  k : int;
  installs_total : int;     (* installation events after the heal, summed *)
  installs_per_proc : float;
  merge_latency : float;    (* heal to stable merged view, sim seconds *)
}

(* The one merge measurement, also run at scale by T/C1-at-scale: [2k]
   nodes partitioned into halves assemble until [assembled], the partition
   heals, and the merged view is awaited in [step]s for up to [settle]
   seconds. *)
let merge ~seed ~config ~k ~assembled ~settle ~step =
  let n = 2 * k in
  let c = Cluster.vsync ~seed ~config ~n () in
  let nodes = List.init n (fun i -> i) in
  let left = Vs_util.Listx.take k nodes and right = Vs_util.Listx.drop k nodes in
  Cluster.apply_action c (Faults.Partition [ left; right ]);
  Cluster.run c ~until:assembled;
  let before = Oracle.total_installs (Cluster.oracle c) in
  let heal_time = Sim.now (Cluster.sim c) in
  Cluster.apply_action c Faults.Heal;
  let stable_at =
    Cluster.await_stable_view c ~step ~deadline:(heal_time +. settle)
  in
  let installs_total = Oracle.total_installs (Cluster.oracle c) - before in
  {
    k;
    installs_total;
    installs_per_proc = float_of_int installs_total /. float_of_int n;
    merge_latency = stable_at -. heal_time;
  }

(* One-at-a-time needs ~k rounds to assemble each half too, so the
   deadlines grow with k. *)
let run_once ~one_at_a_time ~k =
  merge
    ~seed:(Int64.of_int (400 + k))
    ~config:{ Endpoint.default_config with Endpoint.one_at_a_time }
    ~k
    ~assembled:(2.0 +. (0.6 *. float_of_int k))
    ~settle:(4.0 +. (0.8 *. float_of_int k))
    ~step:0.05

let run ?(quick = false) () =
  let ks = if quick then [ 2; 4 ] else [ 1; 2; 4; 8; 16 ] in
  let table =
    Table.create
      ~title:
        "E4 / claim C1 — merging two k-member partitions: batch admission \
         vs Isis one-at-a-time"
      ~columns:
        [
          "k";
          "batch installs/proc";
          "isis installs/proc";
          "install ratio";
          "batch latency (s)";
          "isis latency (s)";
        ]
  in
  List.iter
    (fun k ->
      let batch = run_once ~one_at_a_time:false ~k in
      let isis = run_once ~one_at_a_time:true ~k in
      let ratio =
        if batch.installs_per_proc > 0. then
          isis.installs_per_proc /. batch.installs_per_proc
        else nan
      in
      Table.add_row table
        [
          Table.fint k;
          Table.ffloat batch.installs_per_proc;
          Table.ffloat isis.installs_per_proc;
          Table.ffloat ratio;
          Table.ffloat ~decimals:3 batch.merge_latency;
          Table.ffloat ~decimals:3 isis.merge_latency;
        ])
    ks;
  table

let tables ?quick () = [ run ?quick () ]
