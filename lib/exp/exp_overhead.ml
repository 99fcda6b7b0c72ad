(* Experiments E9 and E10 — the run-time cost of the machinery.

   E9: the same fault-and-traffic campaign over plain view synchrony and
   over enriched view synchrony (with the application merging structure
   after every change, the worst case): extra messages, bytes and events
   attributable to the subview/sv-set machinery.  The paper claims the
   extension "requires minor modifications ... and can be implemented
   efficiently" [2]; this quantifies it.

   E10: the cost of a view change itself — messages and virtual latency of
   merging two halves of a group, against group size, with and without
   unstable message backlog (the flush must then carry the synchronisation
   set). *)

module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Proc_id = Vs_net.Proc_id
module E_view = Evs_core.E_view
module Evs = Evs_core.Evs
module Endpoint = Vs_vsync.Endpoint
module Cluster = Vs_harness.Cluster
module Oracle = Vs_harness.Oracle
module Faults = Vs_harness.Faults
module Table = Vs_stats.Table

(* ---------- E9 ---------- *)

type e9_sample = { msgs : int; bytes : int; installs : int; echanges : int }

let e9_script seed nodes duration =
  let rng = Vs_util.Rng.create seed in
  Faults.random_script rng ~nodes ~start:1.0 ~duration ~mean_gap:0.7 ()

(* One E9 arm: the campaign's faults and traffic, plus [tick] every 0.25 s
   from 0.7 s when given. *)
let e9_run c ~seed ~duration ~tick =
  Cluster.run_script c
    (e9_script (Int64.add seed 1L) [ 0; 1; 2; 3; 4 ] duration);
  Cluster.pump_traffic c ~start:0.5 ~until:duration ~mean_gap:0.05;
  Option.iter
    (fun tick ->
      let rec arm t0 =
        if t0 < duration then begin
          ignore (Sim.at (Cluster.sim c) t0 tick);
          arm (t0 +. 0.25)
        end
      in
      arm 0.7)
    tick;
  Cluster.run c ~until:(duration +. 3.0);
  let s = Cluster.net_stats c in
  {
    msgs = s.Net.sent;
    bytes = s.Net.bytes_sent;
    installs = Oracle.total_installs (Cluster.oracle c);
    echanges = Oracle.eview_changes (Cluster.oracle c);
  }

(* Worst-case structure maintenance: the coordinator merges after every
   change. *)
let merge_all e =
  let ev = Evs.eview e in
  match Proc_id.min_member (E_view.members ev) with
  | Some m when Proc_id.equal m (Evs.me e) ->
      let sss = E_view.svset_ids ev in
      if List.length sss >= 2 then Evs.svset_merge e sss
      else begin
        let svs = E_view.subview_ids ev in
        if List.length svs >= 2 then Evs.subview_merge e svs
      end
  | Some _ | None -> ()

let run_e9 ?(quick = false) () =
  let duration = if quick then 4.0 else 12.0 in
  let seed = 901L in
  let plain = e9_run (Cluster.vsync ~seed ~n:5 ()) ~seed ~duration ~tick:None in
  let evs =
    let c = Cluster.evs ~seed ~n:5 () in
    e9_run c ~seed ~duration
      ~tick:(Some (fun () -> List.iter merge_all (Cluster.live c)))
  in
  let table =
    Table.create
      ~title:
        "E9 — EVS run-time overhead vs plain view synchrony (same campaign, \
         5 nodes; EVS re-merges structure after every change)"
      ~columns:[ "metric"; "plain VS"; "EVS"; "overhead" ]
  in
  let pct a b =
    if a = 0 then "-"
    else Table.fpct ((float_of_int b -. float_of_int a) /. float_of_int a)
  in
  Table.add_row table
    [ "messages sent"; Table.fint plain.msgs; Table.fint evs.msgs; pct plain.msgs evs.msgs ];
  Table.add_row table
    [ "bytes sent"; Table.fint plain.bytes; Table.fint evs.bytes; pct plain.bytes evs.bytes ];
  Table.add_row table
    [
      "view installations";
      Table.fint plain.installs;
      Table.fint evs.installs;
      pct plain.installs evs.installs;
    ];
  Table.add_row table
    [ "within-view e-view changes"; "0"; Table.fint evs.echanges; "-" ];
  table

(* ---------- E10 ---------- *)

let run_merge ?(stability = true) ~n ~backlog () =
  let config =
    {
      Endpoint.default_config with
      Endpoint.stability_interval =
        (if stability then Endpoint.default_config.Endpoint.stability_interval
         else None);
    }
  in
  let c =
    Cluster.vsync
      ~seed:(Int64.of_int (1000 + n + if backlog then 1 else 0))
      ~config ~n ()
  in
  let nodes = List.init n (fun i -> i) in
  let half = n / 2 in
  let left = Vs_util.Listx.take half nodes
  and right = Vs_util.Listx.drop half nodes in
  Cluster.apply_action c (Faults.Partition [ left; right ]);
  Cluster.run c ~until:2.0;
  if backlog then begin
    (* Traffic before the merge: the flush must synchronise whatever has
       not become stable.  A short delivery pause lets stability gossip
       (when enabled) trim most of it. *)
    List.iter
      (fun node ->
        for _ = 1 to 10 do
          Cluster.multicast_from c ~node ()
        done)
      nodes;
    Cluster.run c ~until:2.3
  end;
  let stats_before = Cluster.net_stats c in
  let heal_time = Sim.now (Cluster.sim c) in
  Cluster.apply_action c Faults.Heal;
  let deadline = heal_time +. 5.0 in
  let stable_at = Cluster.await_stable_view c ~step:0.02 ~deadline in
  let stats_after = Cluster.net_stats c in
  ( stable_at -. heal_time,
    stats_after.Net.sent - stats_before.Net.sent,
    stats_after.Net.bytes_sent - stats_before.Net.bytes_sent )

let run_e10 ?(quick = false) () =
  let sizes = if quick then [ 4; 8 ] else [ 2; 4; 8; 16; 24 ] in
  let table =
    Table.create
      ~title:
        "E10 — view-agreement (flush) cost of merging two halves, vs group \
         size"
      ~columns:
        [
          "group size";
          "merge latency (s)";
          "messages";
          "bytes";
          "latency w/ backlog";
          "messages w/ backlog";
          "bytes w/ backlog";
        ]
  in
  List.iter
    (fun n ->
      let lat, msgs, bytes = run_merge ~n ~backlog:false () in
      let lat_b, msgs_b, bytes_b = run_merge ~n ~backlog:true () in
      Table.add_row table
        [
          Table.fint n;
          Table.ffloat ~decimals:3 lat;
          Table.fint msgs;
          Table.fint bytes;
          Table.ffloat ~decimals:3 lat_b;
          Table.fint msgs_b;
          Table.fint bytes_b;
        ])
    sizes;
  table

(* Ablation: the flush's synchronisation bytes with and without stability
   tracking — DESIGN.md calls out the untrimmed per-view message log as a
   simplification; this measures what the stability protocol buys back. *)
let run_e10_stability ?(quick = false) () =
  let sizes = if quick then [ 8 ] else [ 4; 8; 16 ] in
  let table =
    Table.create
      ~title:
        "E10b — ablation: flush bytes for a merge with message backlog, \
         with vs without stability tracking"
      ~columns:
        [
          "group size";
          "bytes (stability on)";
          "bytes (stability off)";
          "saved";
        ]
  in
  List.iter
    (fun n ->
      let _, _, bytes_on = run_merge ~stability:true ~n ~backlog:true () in
      let _, _, bytes_off = run_merge ~stability:false ~n ~backlog:true () in
      Table.add_row table
        [
          Table.fint n;
          Table.fint bytes_on;
          Table.fint bytes_off;
          (if bytes_off = 0 then "-"
           else
             Table.fpct
               (float_of_int (bytes_off - bytes_on) /. float_of_int bytes_off));
        ])
    sizes;
  table

let tables ?quick () =
  [ run_e9 ?quick (); run_e10 ?quick (); run_e10_stability ?quick () ]
