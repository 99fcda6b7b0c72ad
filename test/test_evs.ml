(* Tests for the enriched view synchrony service (Section 6): joins as
   singleton subviews, application-driven merges (Figure 3), structure
   preservation across partitions and merges (Figure 2), total order of
   e-view changes (Property 6.1) and randomized campaigns. *)

module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module E_view = Evs_core.E_view
module Evs = Evs_core.Evs
module Endpoint = Vs_vsync.Endpoint
module Cluster = Vs_harness.Cluster
module Oracle = Vs_harness.Oracle
module Faults = Vs_harness.Faults

let check = Alcotest.check

let no_errors what = function
  | [] -> ()
  | (first : Oracle.violation) :: _ as errs ->
      Alcotest.failf "%s: %d violations, first: %s" what (List.length errs)
        first.detail

(* The oracle's Section 6 verdicts on a cluster's run. *)
let order_violations c = Oracle.eview_order_violations (Cluster.oracle c)
let structure_violations c = Oracle.structure_violations (Cluster.oracle c)

let eview_of c node =
  match Cluster.on_node c node with
  | Some e -> Evs.eview e
  | None -> Alcotest.failf "node %d down" node

let structure_string c node = E_view.to_string (eview_of c node)

let count_subviews ev = List.length ev.E_view.structure.E_view.subviews
let count_svsets ev = List.length ev.E_view.structure.E_view.svsets

(* ---------- joins ---------- *)

let test_join_creates_singletons () =
  let c = Cluster.evs ~n:4 () in
  Cluster.run c ~until:1.0;
  let ev = eview_of c 0 in
  check Alcotest.int "four members" 4 (List.length (E_view.members ev));
  (* "When a process first joins a group, it appears within the new view in
     a new sv-set containing a new subview containing only the process
     itself." *)
  check Alcotest.int "four singleton subviews" 4 (count_subviews ev);
  check Alcotest.int "four singleton sv-sets" 4 (count_svsets ev);
  (match E_view.validate ev with Ok () -> () | Error e -> Alcotest.fail e);
  check Alcotest.bool "not degenerate" false (E_view.is_degenerate ev)

(* ---------- Figure 3: two e-view changes within one view ---------- *)

let test_figure3_merges () =
  let c = Cluster.evs ~n:3 () in
  Cluster.run c ~until:1.0;
  let e0 = Option.get (Cluster.on_node c 0) in
  (* First e-view change: SV-SetMerge of the three singleton sv-sets. *)
  Evs.svset_merge e0 (E_view.svset_ids (Evs.eview e0));
  Cluster.run c ~until:1.3;
  let ev = eview_of c 1 in
  check Alcotest.int "one sv-set after SV-SetMerge" 1 (count_svsets ev);
  check Alcotest.int "subviews untouched" 3 (count_subviews ev);
  check Alcotest.int "eseq 1" 1 ev.E_view.eseq;
  (* Second e-view change: SubviewMerge of two of the subviews. *)
  (match E_view.subview_ids ev with
  | a :: b :: _ -> Evs.subview_merge e0 [ a; b ]
  | _ -> Alcotest.fail "expected three subviews");
  Cluster.run c ~until:1.6;
  let ev = eview_of c 2 in
  check Alcotest.int "two subviews after SubviewMerge" 2 (count_subviews ev);
  check Alcotest.int "eseq 2" 2 ev.E_view.eseq;
  (* Everyone converged on the same structure, in the same order. *)
  check Alcotest.string "identical structures" (structure_string c 0)
    (structure_string c 1);
  check Alcotest.string "identical structures" (structure_string c 1)
    (structure_string c 2);
  no_errors "figure 3 total order" (order_violations c)

let test_full_merge_degenerates_to_flat_view () =
  let c = Cluster.evs ~n:3 () in
  Cluster.run c ~until:1.0;
  let e0 = Option.get (Cluster.on_node c 0) in
  Evs.svset_merge e0 (E_view.svset_ids (Evs.eview e0));
  Cluster.run c ~until:1.3;
  Evs.subview_merge e0 (E_view.subview_ids (Evs.eview e0));
  Cluster.run c ~until:1.6;
  (* "The case where there is a single sv-set containing a single subview
     containing all of the processes degenerates to the traditional view
     abstraction." *)
  check Alcotest.bool "degenerate" true (E_view.is_degenerate (eview_of c 1))

let test_cross_svset_subview_merge_refused () =
  let c = Cluster.evs ~n:3 () in
  Cluster.run c ~until:1.0;
  let e0 = Option.get (Cluster.on_node c 0) in
  let eseq = (Evs.eview e0).E_view.eseq in
  (* Subviews still live in distinct sv-sets: the merge has no effect. *)
  Evs.subview_merge e0 (E_view.subview_ids (Evs.eview e0));
  (* Delivered after the request in the total order, so its delivery shows
     the request was applied. *)
  Cluster.multicast_from c ~node:0 ~order:Endpoint.Total ();
  Cluster.run c ~until:1.3;
  check Alcotest.int "structure unchanged" 3 (count_subviews (eview_of c 0));
  check Alcotest.int "later message delivered" 1
    (List.length (Oracle.deliveries_of (Cluster.oracle c) ~proc:(Evs.me e0)));
  check Alcotest.int "no e-view change" eseq (Evs.eview e0).E_view.eseq

(* ---------- Figure 2: preservation across view changes ---------- *)

let run_figure2 () =
  let c = Cluster.evs ~n:4 () in
  Cluster.run c ~until:1.0;
  (* Merge everyone into one subview. *)
  let e0 = Option.get (Cluster.on_node c 0) in
  Evs.svset_merge e0 (E_view.svset_ids (Evs.eview e0));
  Cluster.run c ~until:1.3;
  Evs.subview_merge e0 (E_view.subview_ids (Evs.eview e0));
  Cluster.run c ~until:1.6;
  c

let test_figure2_partition_preserves_fragments () =
  let c = run_figure2 () in
  Cluster.apply_action c (Faults.Partition [ [ 0; 1 ]; [ 2; 3 ] ]);
  Cluster.run c ~until:3.0;
  (* Each side keeps its fragment as one subview (failures shrink
     compositions but never split survivors that stay together). *)
  let left = eview_of c 0 and right = eview_of c 2 in
  check Alcotest.int "left fragment united" 1 (count_subviews left);
  check Alcotest.int "right fragment united" 1 (count_subviews right);
  (* Merge: the fragments must appear as two distinct subviews in two
     distinct sv-sets — composition grows only under application control. *)
  Cluster.apply_action c Faults.Heal;
  Cluster.run c ~until:5.0;
  let merged = eview_of c 0 in
  check Alcotest.int "merged view has 4 members" 4
    (List.length (E_view.members merged));
  check Alcotest.int "two fragments" 2 (count_subviews merged);
  check Alcotest.int "two sv-sets" 2 (count_svsets merged);
  let sv_of x = (Option.get (E_view.subview_of x merged)).E_view.sv_id in
  check Alcotest.bool "p0,p1 together" true
    (E_view.Subview_id.equal (sv_of (Proc_id.initial 0)) (sv_of (Proc_id.initial 1)));
  check Alcotest.bool "p0,p2 apart" false
    (E_view.Subview_id.equal (sv_of (Proc_id.initial 0)) (sv_of (Proc_id.initial 2)));
  no_errors "figure 2 structure" (structure_violations c);
  no_errors "figure 2 total order" (order_violations c)

let test_crash_shrinks_subview () =
  let c = run_figure2 () in
  Cluster.apply_action c (Faults.Crash 3);
  Cluster.run c ~until:3.0;
  let ev = eview_of c 0 in
  check Alcotest.int "members" 3 (List.length (E_view.members ev));
  check Alcotest.int "still one subview" 1 (count_subviews ev);
  check Alcotest.int "subview shrank" 3
    (List.length (List.hd ev.E_view.structure.E_view.subviews).E_view.sv_members)

let test_rejoin_after_crash_is_fresh_singleton () =
  let c = run_figure2 () in
  Cluster.apply_action c (Faults.Crash 3);
  Cluster.run c ~until:3.0;
  Cluster.apply_action c (Faults.Recover 3);
  Cluster.run c ~until:5.0;
  let ev = eview_of c 0 in
  check Alcotest.int "four members again" 4 (List.length (E_view.members ev));
  (* The recovered process cannot silently reappear inside the old subview:
     it must come back as a fresh singleton. *)
  check Alcotest.int "veteran subview + fresh singleton" 2 (count_subviews ev);
  let fresh = Proc_id.make ~node:3 ~inc:1 in
  let sv = Option.get (E_view.subview_of fresh ev) in
  check
    (Alcotest.list (Alcotest.testable Proc_id.pp Proc_id.equal))
    "singleton" [ fresh ] sv.E_view.sv_members

(* ---------- merge requests racing view changes ---------- *)

let test_merge_racing_view_change_is_harmless () =
  let c = Cluster.evs ~n:4 () in
  Cluster.run c ~until:1.0;
  let e0 = Option.get (Cluster.on_node c 0) in
  (* Issue the merge and kill a member in the same instant. *)
  Evs.svset_merge e0 (E_view.svset_ids (Evs.eview e0));
  Cluster.apply_action c (Faults.Crash 3);
  Cluster.run c ~until:3.0;
  (* Whatever happened — merge applied with the dead member's sv-set
     filtered out, or dropped with the view change — the structures remain
     consistent everywhere. *)
  no_errors "race total order" (order_violations c);
  no_errors "race structure" (structure_violations c);
  check Alcotest.string "survivors agree" (structure_string c 0)
    (structure_string c 1)

(* ---------- messaging through EVS ---------- *)

let test_messages_flow_through_evs () =
  let c = Cluster.evs ~n:3 () in
  Cluster.run c ~until:1.0;
  for _ = 1 to 5 do
    Cluster.multicast_from c ~node:0 ();
    Cluster.multicast_from c ~node:1 ~order:Endpoint.Total ()
  done;
  Cluster.run c ~until:2.0;
  check Alcotest.int "30 deliveries" 30 (Oracle.total_deliveries (Cluster.oracle c));
  no_errors "evs messaging" (Oracle.all_violations (Cluster.oracle c))

(* ---------- app annotations ride along ---------- *)

let test_app_annotation_passthrough () =
  let sim = Sim.create ~seed:61L () in
  let net : (unit, string) Evs.net = Evs.make_net sim Net.default_config in
  let universe = [ 0; 1 ] in
  let seen = ref [] in
  let make node ann =
    let me = Proc_id.initial node in
    let callbacks =
      {
        Evs.on_eview =
          (fun ev ->
            if List.length (E_view.members ev.Evs.eview) = 2 then
              seen := ev.Evs.annotations :: !seen);
        on_message = (fun ~sender:_ () -> ());
      }
    in
    let e = Evs.create sim net ~me ~universe ~config:Endpoint.default_config ~callbacks in
    Evs.set_annotation e (Some ann);
    e
  in
  let _a = make 0 "alpha" and _b = make 1 "beta" in
  ignore (Sim.run ~until:2.0 sim);
  check Alcotest.int "both installs seen" 2 (List.length !seen);
  List.iter
    (fun anns ->
      check (Alcotest.option Alcotest.string) "p0 app annotation" (Some "alpha")
        (Option.join (List.assoc_opt (Proc_id.initial 0) anns)))
    !seen

(* ---------- subview-scoped multicast ---------- *)

let test_subview_scoped_multicast () =
  let sim = Sim.create ~seed:63L () in
  let net : (string, unit) Evs.net = Evs.make_net sim Net.default_config in
  let universe = [ 0; 1; 2; 3 ] in
  let received = Hashtbl.create 8 in
  let endpoints = Hashtbl.create 8 in
  List.iter
    (fun node ->
      let me = Proc_id.initial node in
      let callbacks =
        {
          Evs.on_eview = (fun _ -> ());
          on_message =
            (fun ~sender:_ msg -> Hashtbl.add received (node, msg) ());
        }
      in
      Hashtbl.replace endpoints node
        (Evs.create sim net ~me ~universe ~config:Endpoint.default_config
           ~callbacks))
    universe;
  ignore (Sim.run ~until:1.0 sim);
  (* Merge p0 and p1 into one subview. *)
  let e0 = Hashtbl.find endpoints 0 in
  let ev = Evs.eview e0 in
  let ss_of n =
    (Option.get
       (E_view.svset_of_subview
          (Option.get (E_view.subview_of (Proc_id.initial n) ev)).E_view.sv_id
          ev))
      .E_view.ss_id
  in
  Evs.svset_merge e0 [ ss_of 0; ss_of 1 ];
  ignore (Sim.run ~until:1.3 sim);
  let ev = Evs.eview e0 in
  let sv_of n =
    (Option.get (E_view.subview_of (Proc_id.initial n) ev)).E_view.sv_id
  in
  Evs.subview_merge e0 [ sv_of 0; sv_of 1 ];
  ignore (Sim.run ~until:1.6 sim);
  (* A scoped multicast from p0 must reach exactly its subview {p0, p1}. *)
  Evs.multicast_subview e0 "team-only";
  (* And a plain multicast reaches everyone. *)
  Evs.multicast e0 "broadcast";
  ignore (Sim.run ~until:2.0 sim);
  List.iter
    (fun node ->
      check Alcotest.bool
        (Printf.sprintf "node %d broadcast" node)
        true
        (Hashtbl.mem received (node, "broadcast"));
      let expected_scoped = node <= 1 in
      check Alcotest.bool
        (Printf.sprintf "node %d scoped" node)
        expected_scoped
        (Hashtbl.mem received (node, "team-only")))
    universe

(* ---------- randomized campaigns ---------- *)

let evs_campaign_property =
  QCheck.Test.make ~name:"EVS campaigns satisfy 2.x and 6.x properties"
    ~count:8
    QCheck.(int_bound 10_000)
    (fun seed ->
      let c = Cluster.evs ~seed:(Int64.of_int (seed + 50_000)) ~n:5 () in
      let rng = Vs_util.Rng.create (Int64.of_int (seed + 77)) in
      let script =
        Faults.random_script rng ~nodes:[ 0; 1; 2; 3; 4 ] ~start:1.0
          ~duration:4.0 ~mean_gap:0.5 ()
      in
      Cluster.run_script c script;
      Cluster.pump_traffic c ~start:0.5 ~until:5.5 ~mean_gap:0.04;
      (* Periodic application merges to exercise within-view e-view changes
         under churn. *)
      let sim = Cluster.sim c in
      let merge_tick () =
        List.iter
          (fun e ->
            let ev = Evs.eview e in
            match Proc_id.min_member (E_view.members ev) with
            | Some m when Proc_id.equal m (Evs.me e) ->
                if count_svsets ev >= 2 then Evs.svset_merge e (E_view.svset_ids ev)
                else if count_subviews ev >= 2 then
                  Evs.subview_merge e (E_view.subview_ids ev)
            | Some _ | None -> ())
          (Cluster.live c)
      in
      let rec arm t0 =
        if t0 < 6.0 then begin
          ignore (Sim.at sim t0 merge_tick);
          arm (t0 +. 0.35)
        end
      in
      arm 0.8;
      Cluster.run c ~until:9.0;
      order_violations c = []
      && structure_violations c = []
      && Oracle.all_violations (Cluster.oracle c) = [])

let () =
  Alcotest.run "evs"
    [
      ( "joins",
        [ Alcotest.test_case "singleton subviews" `Quick test_join_creates_singletons ] );
      ( "figure 3",
        [
          Alcotest.test_case "two e-view changes" `Quick test_figure3_merges;
          Alcotest.test_case "degenerates to flat" `Quick
            test_full_merge_degenerates_to_flat_view;
          Alcotest.test_case "cross-sv-set merge refused" `Quick
            test_cross_svset_subview_merge_refused;
        ] );
      ( "figure 2",
        [
          Alcotest.test_case "partition preserves fragments" `Quick
            test_figure2_partition_preserves_fragments;
          Alcotest.test_case "crash shrinks subview" `Quick test_crash_shrinks_subview;
          Alcotest.test_case "rejoin is fresh singleton" `Quick
            test_rejoin_after_crash_is_fresh_singleton;
        ] );
      ( "races",
        [
          Alcotest.test_case "merge vs view change" `Quick
            test_merge_racing_view_change_is_harmless;
        ] );
      ( "messaging",
        [
          Alcotest.test_case "flows through EVS" `Quick test_messages_flow_through_evs;
          Alcotest.test_case "app annotations" `Quick test_app_annotation_passthrough;
          Alcotest.test_case "subview-scoped multicast" `Quick
            test_subview_scoped_multicast;
        ] );
      ("campaigns", [ QCheck_alcotest.to_alcotest evs_campaign_property ]);
    ]
