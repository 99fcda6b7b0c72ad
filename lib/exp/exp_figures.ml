(* Experiments E2 and E3 — Figures 2 and 3 as executable scenarios.

   E2 replays the paper's Figure 2 shape: a group whose application has
   merged everyone into one subview is partitioned, evolves on both sides,
   and re-merges — the enriched views printed at each stage show the
   subview/sv-set structure being preserved (fragments shrink, never
   auto-join).

   E3 replays Figure 3: within a single view, an SV-SetMerge of three
   sv-sets followed by a SubviewMerge of two subviews — two e-view changes,
   totally ordered at all members. *)

module Sim = Vs_sim.Sim
module Proc_id = Vs_net.Proc_id
module E_view = Evs_core.E_view
module Evs = Evs_core.Evs
module Cluster = Vs_harness.Cluster
module Oracle = Vs_harness.Oracle
module Faults = Vs_harness.Faults
module Table = Vs_stats.Table

let structure_at c node =
  match Cluster.on_node c node with
  | Some e -> E_view.to_string (Evs.eview e)
  | None -> "(down)"

let coordinator_merge_all c =
  match Cluster.on_node c 0 with
  | Some e ->
      let ev = Evs.eview e in
      if List.length (E_view.svset_ids ev) >= 2 then
        Evs.svset_merge e (E_view.svset_ids ev);
      ignore (Sim.run ~until:(Sim.now (Cluster.sim c) +. 0.3) (Cluster.sim c));
      (match Cluster.on_node c 0 with
      | Some e ->
          let ev = Evs.eview e in
          if List.length (E_view.subview_ids ev) >= 2 then
            Evs.subview_merge e (E_view.subview_ids ev)
      | None -> ());
      ignore (Sim.run ~until:(Sim.now (Cluster.sim c) +. 0.3) (Cluster.sim c))
  | None -> ()

let run_figure2 () =
  let table =
    Table.create
      ~title:
        "E2 / Figure 2 — subview & sv-set structure across view changes \
         ({sv-set}, [subview])"
      ~columns:[ "stage"; "structure at p0"; "structure at p2" ]
  in
  let c = Cluster.evs ~seed:202L ~n:4 () in
  Cluster.run c ~until:1.0;
  Table.add_row table
    [ "v1: all joined (singletons)"; structure_at c 0; structure_at c 2 ];
  coordinator_merge_all c;
  Table.add_row table
    [ "v1: app merged everyone"; structure_at c 0; structure_at c 2 ];
  Cluster.apply_action c (Faults.Partition [ [ 0; 1 ]; [ 2; 3 ] ]);
  Cluster.run c ~until:(Sim.now (Cluster.sim c) +. 1.5);
  Table.add_row table
    [ "v2,v2': partition {01}|{23}"; structure_at c 0; structure_at c 2 ];
  Cluster.apply_action c Faults.Heal;
  Cluster.run c ~until:(Sim.now (Cluster.sim c) +. 1.5);
  Table.add_row table
    [ "v3: merged (fragments apart)"; structure_at c 0; structure_at c 2 ];
  coordinator_merge_all c;
  Table.add_row table
    [ "v3: app re-merged"; structure_at c 0; structure_at c 2 ];
  let violations =
    List.length (Oracle.structure_violations (Cluster.oracle c))
    + List.length (Oracle.eview_order_violations (Cluster.oracle c))
  in
  Table.add_row table
    [ "property violations"; Table.fint violations; Table.fint violations ];
  table

let run_figure3 () =
  let table =
    Table.create
      ~title:
        "E3 / Figure 3 — e-view changes within one view (SV-SetMerge then \
         SubviewMerge)"
      ~columns:[ "eseq"; "cause"; "structure (identical at all members)" ]
  in
  let c = Cluster.evs ~seed:203L ~n:3 () in
  Cluster.run c ~until:1.0;
  let snapshot cause =
    let s0 = structure_at c 0 and s1 = structure_at c 1 and s2 = structure_at c 2 in
    let agreed = String.equal s0 s1 && String.equal s1 s2 in
    let eseq =
      match Cluster.on_node c 0 with
      | Some e -> (Evs.eview e).E_view.eseq
      | None -> -1
    in
    Table.add_row table
      [
        Table.fint eseq;
        cause;
        (if agreed then s0 else "DISAGREEMENT: " ^ s0 ^ " / " ^ s1 ^ " / " ^ s2);
      ]
  in
  snapshot "view installed";
  (match Cluster.on_node c 0 with
  | Some e -> Evs.svset_merge e (E_view.svset_ids (Evs.eview e))
  | None -> ());
  Cluster.run c ~until:(Sim.now (Cluster.sim c) +. 0.3);
  snapshot "SV-SetMerge(3 sv-sets)";
  (match Cluster.on_node c 0 with
  | Some e -> (
      match E_view.subview_ids (Evs.eview e) with
      | a :: b :: _ -> Evs.subview_merge e [ a; b ]
      | _ -> ())
  | None -> ());
  Cluster.run c ~until:(Sim.now (Cluster.sim c) +. 0.3);
  snapshot "SubviewMerge(2 subviews)";
  let violations =
    List.length (Oracle.eview_order_violations (Cluster.oracle c))
  in
  Table.add_row table
    [ "-"; "total-order violations"; Table.fint violations ];
  table

let tables ?quick:_ () = [ run_figure2 (); run_figure3 () ]
