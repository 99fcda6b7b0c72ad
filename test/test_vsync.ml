(* Tests for the view-synchronous endpoint: view formation, the data path,
   flush correctness, partitions and merges, the Isis-style admission
   throttle, and randomized campaigns checked against the global oracle. *)

module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module Endpoint = Vs_vsync.Endpoint
module Cluster = Vs_harness.Cluster
module Oracle = Vs_harness.Oracle
module Faults = Vs_harness.Faults

let check = Alcotest.check

let no_errors what errs =
  if errs <> [] then
    Alcotest.failf "%s: %d violations, first: %s" what (List.length errs)
      (List.hd errs)

let view_of_node c node =
  match Cluster.on_node c node with
  | Some ep -> Endpoint.view ep
  | None -> Alcotest.failf "node %d is down" node

(* ---------- formation ---------- *)

let test_initial_singleton_views () =
  let c = Cluster.vsync ~n:3 () in
  (* Before any communication, each process has delivered its singleton
     view: the first event of its history (Section 3). *)
  Cluster.run c ~until:0.0001;
  List.iter
    (fun node ->
      let installs = Oracle.installs_of (Cluster.oracle c) ~proc:(Proc_id.initial node) in
      match installs with
      | (v, _) :: _ ->
          check Alcotest.int "first view is singleton" 1 (View.size v)
      | [] -> Alcotest.fail "no initial view")
    [ 0; 1; 2 ]

let test_group_forms () =
  let c = Cluster.vsync ~n:4 () in
  Cluster.run c ~until:2.0;
  check Alcotest.bool "stable common view" true (Cluster.stable_view_reached c);
  check Alcotest.int "all four members" 4 (View.size (view_of_node c 0))

let test_messaging_all_delivered () =
  let c = Cluster.vsync ~n:3 () in
  Cluster.run c ~until:1.0;
  for _ = 1 to 5 do
    Cluster.multicast_from c ~node:0 ();
    Cluster.multicast_from c ~node:1 ~order:Endpoint.Total ();
    Cluster.multicast_from c ~node:2 ()
  done;
  Cluster.run c ~until:2.0;
  (* 15 messages, 3 receivers each. *)
  check Alcotest.int "45 deliveries" 45 (Oracle.total_deliveries (Cluster.oracle c));
  no_errors "stable messaging" (Oracle.check_all (Cluster.oracle c))

let test_crash_shrinks_view () =
  let c = Cluster.vsync ~n:3 () in
  Cluster.run c ~until:1.0;
  Cluster.apply_action c (Faults.Crash 2);
  Cluster.run c ~until:2.5;
  check Alcotest.bool "stable after crash" true (Cluster.stable_view_reached c);
  check Alcotest.int "two members left" 2 (View.size (view_of_node c 0));
  no_errors "crash run" (Oracle.check_all (Cluster.oracle c))

let test_leave_shrinks_view () =
  let c = Cluster.vsync ~n:3 () in
  Cluster.run c ~until:1.0;
  (match Cluster.on_node c 2 with
  | Some ep -> Endpoint.leave ep
  | None -> Alcotest.fail "node 2 down");
  Cluster.run c ~until:2.5;
  check Alcotest.int "two members after leave" 2 (View.size (view_of_node c 0));
  no_errors "leave run" (Oracle.check_all (Cluster.oracle c))

let test_recovery_rejoins_as_new_process () =
  let c = Cluster.vsync ~n:3 () in
  Cluster.run c ~until:1.0;
  Cluster.apply_action c (Faults.Crash 1);
  Cluster.run c ~until:2.5;
  Cluster.apply_action c (Faults.Recover 1);
  Cluster.run c ~until:4.0;
  check Alcotest.bool "stable after recovery" true (Cluster.stable_view_reached c);
  let v = view_of_node c 0 in
  check Alcotest.int "three members again" 3 (View.size v);
  check Alcotest.bool "recovered process has a fresh identity" true
    (View.mem (Proc_id.make ~node:1 ~inc:1) v);
  no_errors "recovery run" (Oracle.check_all (Cluster.oracle c))

(* ---------- partitions ---------- *)

let test_concurrent_partitions () =
  let c = Cluster.vsync ~n:5 () in
  Cluster.run c ~until:1.0;
  Cluster.apply_action c (Faults.Partition [ [ 0; 1 ]; [ 2; 3; 4 ] ]);
  Cluster.run c ~until:2.5;
  let v0 = view_of_node c 0 and v2 = view_of_node c 2 in
  check Alcotest.int "minority view" 2 (View.size v0);
  check Alcotest.int "majority view" 3 (View.size v2);
  check Alcotest.bool "distinct concurrent views" false (View.equal v0 v2);
  (* Progress in both partitions. *)
  Cluster.multicast_from c ~node:0 ();
  Cluster.multicast_from c ~node:2 ();
  Cluster.run c ~until:3.0;
  no_errors "partitioned run" (Oracle.check_all (Cluster.oracle c))

let test_merge_carries_priors () =
  let c = Cluster.vsync ~n:4 () in
  Cluster.run c ~until:1.0;
  Cluster.apply_action c (Faults.Partition [ [ 0; 1 ]; [ 2; 3 ] ]);
  Cluster.run c ~until:2.5;
  Cluster.apply_action c Faults.Heal;
  Cluster.run c ~until:4.0;
  check Alcotest.bool "merged" true (Cluster.stable_view_reached c);
  check Alcotest.int "all back" 4 (View.size (view_of_node c 0));
  (* The install recorded each member's prior view: two clusters. *)
  let installs = Oracle.installs_of (Cluster.oracle c) ~proc:(Proc_id.initial 0) in
  let final_view, _ = List.nth installs (List.length installs - 1) in
  check Alcotest.int "merged membership" 4 (View.size final_view);
  no_errors "merge run" (Oracle.check_all (Cluster.oracle c))

let test_agreement_across_partition_boundary () =
  (* Messages multicast close to the partition moment must still satisfy
     agreement: survivors into the same next view deliver the same sets. *)
  let c = Cluster.vsync ~n:4 () in
  Cluster.run c ~until:1.0;
  for _ = 1 to 10 do
    Cluster.multicast_from c ~node:0 ();
    Cluster.multicast_from c ~node:3 ()
  done;
  Cluster.apply_action c (Faults.Partition [ [ 0; 1 ]; [ 2; 3 ] ]);
  for _ = 1 to 5 do
    Cluster.multicast_from c ~node:1 ();
    Cluster.multicast_from c ~node:2 ()
  done;
  Cluster.run c ~until:2.5;
  Cluster.apply_action c Faults.Heal;
  Cluster.run c ~until:4.0;
  no_errors "boundary agreement" (Oracle.check_all (Cluster.oracle c))

(* ---------- blocking and queuing ---------- *)

let test_multicast_queued_during_flush () =
  let c = Cluster.vsync ~n:3 () in
  Cluster.run c ~until:1.0;
  (* Force a view change and multicast immediately, while flushing. *)
  Cluster.apply_action c (Faults.Crash 2);
  let sim = Cluster.sim c in
  ignore
    (Sim.after sim 0.16 (fun () ->
         (* Inside the membership change window. *)
         Cluster.multicast_from c ~node:0 ()));
  Cluster.run c ~until:3.0;
  (* The queued message must eventually reach both survivors. *)
  let d0 = Oracle.deliveries_of (Cluster.oracle c) ~proc:(Proc_id.initial 0) in
  let d1 = Oracle.deliveries_of (Cluster.oracle c) ~proc:(Proc_id.initial 1) in
  check Alcotest.int "self delivery" 1 (List.length d0);
  check Alcotest.int "peer delivery" 1 (List.length d1);
  no_errors "queued multicast" (Oracle.check_all (Cluster.oracle c))

(* ---------- message loss and NACK recovery ---------- *)

let test_lossy_network_recovers () =
  let net_config = { Net.default_config with Net.drop_prob = 0.15 } in
  let c = Cluster.vsync ~seed:77L ~net_config ~n:3 () in
  Cluster.run c ~until:1.5;
  for _ = 1 to 30 do
    Cluster.multicast_from c ~node:0 ();
    Cluster.multicast_from c ~node:1 ()
  done;
  Cluster.run c ~until:6.0;
  no_errors "lossy run" (Oracle.check_all (Cluster.oracle c));
  (* Under 15% loss the NACK machinery must have fired. *)
  let any_retransmit =
    List.exists
      (fun ep -> (Endpoint.stats ep).Endpoint.nacks_sent > 0)
      (Cluster.live c)
  in
  check Alcotest.bool "nacks used" true any_retransmit

let test_duplicating_network () =
  let net_config = { Net.default_config with Net.dup_prob = 0.3 } in
  let c = Cluster.vsync ~seed:78L ~net_config ~n:3 () in
  Cluster.run c ~until:1.5;
  for _ = 1 to 20 do
    Cluster.multicast_from c ~node:0 ()
  done;
  Cluster.run c ~until:3.0;
  (* Integrity: duplicates on the wire never reach the application twice. *)
  no_errors "duplicating run" (Oracle.check_all (Cluster.oracle c))

let test_stability_trims_logs () =
  let c = Cluster.vsync ~seed:79L ~n:3 () in
  Cluster.run c ~until:1.0;
  let ep0 = Option.get (Cluster.on_node c 0) in
  let before = Endpoint.stats ep0 in
  for _ = 1 to 20 do
    Cluster.multicast_from c ~node:0 ();
    Cluster.multicast_from c ~node:1 ()
  done;
  (* Leave time for delivery and a few stability gossip rounds. *)
  Cluster.run c ~until:2.0;
  (* [stats] is a snapshot: one taken before the traffic does not move. *)
  check Alcotest.int "sent" 20 (Endpoint.stats ep0).Endpoint.data_sent;
  check
    Alcotest.(pair int int)
    "earlier snapshot" (0, 0)
    (before.Endpoint.data_sent, before.Endpoint.stabilized);
  let trimmed =
    List.fold_left
      (fun acc ep -> acc + (Endpoint.stats ep).Endpoint.stabilized)
      0 (Cluster.live c)
  in
  check Alcotest.bool "stable messages trimmed from logs" true (trimmed > 0);
  (* Correctness is untouched: force a view change after trimming. *)
  Cluster.apply_action c (Faults.Crash 2);
  Cluster.run c ~until:4.0;
  no_errors "trimmed run" (Oracle.check_all (Cluster.oracle c))

let test_stability_disabled_is_correct () =
  let config =
    { Endpoint.default_config with Endpoint.stability_interval = None }
  in
  let c = Cluster.vsync ~seed:80L ~config ~n:3 () in
  Cluster.run c ~until:1.0;
  for _ = 1 to 10 do
    Cluster.multicast_from c ~node:0 ()
  done;
  Cluster.run c ~until:2.0;
  let trimmed =
    List.fold_left
      (fun acc ep -> acc + (Endpoint.stats ep).Endpoint.stabilized)
      0 (Cluster.live c)
  in
  check Alcotest.int "nothing trimmed when disabled" 0 trimmed;
  Cluster.apply_action c (Faults.Crash 2);
  Cluster.run c ~until:4.0;
  no_errors "untrimmed run" (Oracle.check_all (Cluster.oracle c))

(* ---------- causal order ---------- *)

(* A mini-harness where deliveries trigger further causal multicasts, so
   real causal chains form; the network's delay spread (1-50 ms) would
   break the chains under FIFO alone. *)
let causal_harness ~seed ~n ~spawn =
  let sim = Sim.create ~seed () in
  let net_config =
    { Net.default_config with Net.delay_min = 0.001; delay_max = 0.050 }
  in
  let net = Net.create sim net_config in
  let universe = List.init n (fun i -> i) in
  let deliveries = Hashtbl.create 64 in (* node -> value list (rev) *)
  let parents = Hashtbl.create 64 in    (* value -> parent value *)
  let next_value = ref 0 in
  let endpoints = Hashtbl.create 8 in
  let rng = Sim.fork_rng sim in
  List.iter
    (fun node ->
      let me = Proc_id.initial node in
      let callbacks =
        {
          Endpoint.on_view = (fun _ -> ());
          on_message =
            (fun ~sender:_ value ->
              let seen =
                match Hashtbl.find_opt deliveries node with
                | Some r -> r
                | None ->
                    let r = ref [] in
                    Hashtbl.add deliveries node r;
                    r
              in
              seen := value :: !seen;
              (* Chain reaction: sometimes answer causally.  Capped — every
                 multicast is delivered n times, so an uncapped reaction
                 with n*spawn > 1 would be supercritical. *)
              if !next_value < 200 && Vs_util.Rng.bool rng spawn then begin
                let ep = Hashtbl.find endpoints node in
                if Endpoint.is_alive ep then begin
                  incr next_value;
                  Hashtbl.replace parents !next_value value;
                  Endpoint.multicast ep ~order:Endpoint.Causal !next_value
                end
              end);
        }
      in
      let ep =
        Endpoint.create sim net ~me ~universe ~config:Endpoint.default_config
          ~callbacks
      in
      Hashtbl.replace endpoints node ep)
    universe;
  ignore (Sim.run ~until:1.5 sim);
  (* Roots of the chains. *)
  for _ = 1 to 5 do
    incr next_value;
    Endpoint.multicast (Hashtbl.find endpoints 0) ~order:Endpoint.Causal
      !next_value
  done;
  ignore (Sim.run ~until:6.0 sim);
  (deliveries, parents, universe)

let check_causal_order (deliveries, parents, universe) =
  List.iter
    (fun node ->
      match Hashtbl.find_opt deliveries node with
      | None -> ()
      | Some seen ->
          let order = List.rev !seen in
          let position = Hashtbl.create 64 in
          List.iteri (fun i v -> Hashtbl.replace position v i) order;
          Hashtbl.iter
            (fun child parent ->
              match
                (Hashtbl.find_opt position child, Hashtbl.find_opt position parent)
              with
              | Some ci, Some pi ->
                  if pi >= ci then
                    Alcotest.failf
                      "causality violated at node %d: %d delivered at %d, \
                       its cause %d at %d"
                      node child ci parent pi
              | Some _, None ->
                  Alcotest.failf
                    "node %d delivered %d without its cause %d" node child
                    parent
              | None, _ -> ())
            parents)
    universe

let test_causal_chains () =
  check_causal_order (causal_harness ~seed:91L ~n:4 ~spawn:0.6)

let causal_property =
  QCheck.Test.make ~name:"causal chains respect causality" ~count:10
    QCheck.(int_bound 1000)
    (fun seed ->
      check_causal_order
        (causal_harness ~seed:(Int64.of_int (seed + 300)) ~n:3 ~spawn:0.5);
      true)

(* ---------- Isis-style one-at-a-time admission ---------- *)

let test_one_at_a_time_throttle () =
  let config = { Endpoint.default_config with Endpoint.one_at_a_time = true } in
  let c = Cluster.vsync ~config ~n:4 () in
  Cluster.run c ~until:4.0;
  check Alcotest.bool "eventually complete" true (Cluster.stable_view_reached c);
  (* Growing from singletons to 4 members one at a time costs the
     coordinator at least 3 installs beyond its initial view. *)
  let installs = Oracle.installs_of (Cluster.oracle c) ~proc:(Proc_id.initial 0) in
  check Alcotest.bool "more view changes than batch admission" true
    (List.length installs >= 4);
  no_errors "one-at-a-time run" (Oracle.check_all (Cluster.oracle c))

let test_one_at_a_time_views_grow_by_one () =
  let config = { Endpoint.default_config with Endpoint.one_at_a_time = true } in
  let c = Cluster.vsync ~config ~n:5 () in
  Cluster.run c ~until:6.0;
  (* Per installed view, reconstruct each member's prior view from the
     oracle: the Isis restriction means a view is the survivors of one
     incumbent view plus at most one newcomer — so at most one member comes
     from outside the largest prior-view cluster. *)
  let oracle = Cluster.oracle c in
  let all_installs =
    List.concat_map
      (fun node ->
        let proc = Proc_id.initial node in
        List.map (fun (v, prior) -> (v.View.id, prior)) (Oracle.installs_of oracle ~proc))
      [ 0; 1; 2; 3; 4 ]
  in
  let by_view =
    Vs_util.Listx.group_by ~key:fst ~cmp_key:View.Id.compare all_installs
  in
  List.iter
    (fun (_, group) ->
      let priors = List.map snd group in
      let clusters =
        Vs_util.Listx.group_by ~key:(fun p -> p) ~cmp_key:View.Id.compare priors
      in
      let sizes =
        List.sort (fun a b -> compare b a) (List.map (fun (_, g) -> List.length g) clusters)
      in
      let outsiders =
        match sizes with [] -> 0 | biggest :: _ -> List.length priors - biggest
      in
      check Alcotest.bool "at most one member from outside the incumbents"
        true (outsiders <= 1))
    by_view

(* ---------- annotations ---------- *)

let test_annotations_collected () =
  let sim = Sim.create ~seed:31L () in
  let net = Net.create sim Net.default_config in
  let universe = [ 0; 1 ] in
  let collected = ref [] in
  let make node ann =
    let me = Proc_id.initial node in
    let callbacks =
      {
        Endpoint.on_view =
          (fun ev ->
            if View.size ev.Endpoint.view = 2 then
              collected := ev.Endpoint.annotations :: !collected);
        on_message = (fun ~sender:_ (_ : int) -> ());
      }
    in
    let ep =
      Endpoint.create sim net ~me ~universe ~config:Endpoint.default_config
        ~callbacks
    in
    Endpoint.set_annotation ep (Some ann);
    ep
  in
  let _a = make 0 "state-of-p0" and _b = make 1 "state-of-p1" in
  ignore (Sim.run ~until:2.0 sim);
  check Alcotest.bool "both saw the merged view" true (List.length !collected = 2);
  List.iter
    (fun anns ->
      check
        (Alcotest.option Alcotest.string)
        "p0 annotation" (Some "state-of-p0")
        (Option.join (List.assoc_opt (Proc_id.initial 0) anns));
      check
        (Alcotest.option Alcotest.string)
        "p1 annotation" (Some "state-of-p1")
        (Option.join (List.assoc_opt (Proc_id.initial 1) anns)))
    !collected

(* ---------- randomized campaigns ---------- *)

let campaign seed =
  let c = Cluster.vsync ~seed ~n:6 () in
  let rng = Vs_util.Rng.create (Int64.add seed 4242L) in
  let script =
    Faults.random_script rng ~nodes:[ 0; 1; 2; 3; 4; 5 ] ~start:1.0
      ~duration:5.0 ~mean_gap:0.4 ()
  in
  Cluster.run_script c script;
  Cluster.pump_traffic c ~start:0.5 ~until:6.5 ~mean_gap:0.02;
  Cluster.run c ~until:9.5;
  (Oracle.check_all (Cluster.oracle c), Cluster.stable_view_reached c)

let random_campaign_property =
  QCheck.Test.make ~name:"random fault campaigns satisfy the VS spec" ~count:12
    QCheck.(int_bound 10_000)
    (fun seed ->
      let errs, stable = campaign (Int64.of_int (seed + 1)) in
      errs = [] && stable)

(* Property-style sweep: the full VS spec must hold across the loss/dup
   grid that the reliable control plane is meant to absorb, including a
   crash mid-run (so flushes happen on the lossy links too). *)
let loss_sweep_run ~drop ~dup ~seed =
  let net_config =
    { Net.default_config with Net.drop_prob = drop; Net.dup_prob = dup }
  in
  let c = Cluster.vsync ~seed ~net_config ~n:4 () in
  Cluster.run c ~until:4.0;
  for _ = 1 to 5 do
    Cluster.multicast_from c ~node:0 ();
    Cluster.multicast_from c ~node:1 ~order:Endpoint.Total ();
    Cluster.multicast_from c ~node:2 ()
  done;
  Cluster.run c ~until:5.0;
  Cluster.apply_action c (Faults.Crash 3);
  Cluster.run c ~until:8.0;
  no_errors
    (Printf.sprintf "loss sweep drop=%.2f dup=%.2f seed=%Ld" drop dup seed)
    (Oracle.check_all (Cluster.oracle c));
  check Alcotest.bool
    (Printf.sprintf "stable drop=%.2f dup=%.2f seed=%Ld" drop dup seed)
    true (Cluster.stable_view_reached c);
  Cluster.stats_total c

let test_loss_dup_sweep () =
  let heavy_loss_retries = ref 0 in
  List.iter
    (fun drop ->
      List.iter
        (fun dup ->
          List.iter
            (fun seed ->
              let st = loss_sweep_run ~drop ~dup ~seed in
              if drop >= 0.2 then
                heavy_loss_retries :=
                  !heavy_loss_retries + st.Endpoint.ctl_retries)
            [ 21L; 22L; 23L ])
        [ 0.0; 0.1 ])
    [ 0.0; 0.05; 0.2 ];
  (* At 20% loss the retry layer must actually be doing work. *)
  check Alcotest.bool "control retries under heavy loss" true
    (!heavy_loss_retries > 0)

(* Regression for peer-served retransmits: messages from a sender that
   crashes right after multicasting can only be recovered from the logs of
   the surviving members (the NACK rotation).  Several seeds are run; all
   must satisfy the spec and at least one must exercise the peer path. *)
let test_peer_served_retransmit () =
  let peer_served = ref 0 in
  List.iter
    (fun seed ->
      let net_config = { Net.default_config with Net.drop_prob = 0.25 } in
      let c = Cluster.vsync ~seed ~net_config ~n:3 () in
      Cluster.run c ~until:3.0;
      for _ = 1 to 20 do
        Cluster.multicast_from c ~node:2 ()
      done;
      Cluster.apply_action c (Faults.Crash 2);
      Cluster.run c ~until:7.0;
      no_errors
        (Printf.sprintf "peer retransmit seed=%Ld" seed)
        (Oracle.check_all (Cluster.oracle c));
      let st = Cluster.stats_total c in
      peer_served := !peer_served + st.Endpoint.peer_retransmits)
    [ 301L; 302L; 303L; 304L; 305L ];
  check Alcotest.bool "gaps served from a peer's log" true (!peer_served > 0)

let test_lossy_campaign () =
  let net_config = { Net.default_config with Net.drop_prob = 0.05 } in
  let c = Cluster.vsync ~seed:911L ~net_config ~n:5 () in
  let rng = Vs_util.Rng.create 1911L in
  let script =
    Faults.random_script rng ~nodes:[ 0; 1; 2; 3; 4 ] ~start:1.0 ~duration:4.0
      ~mean_gap:0.5 ()
  in
  Cluster.run_script c script;
  Cluster.pump_traffic c ~start:0.5 ~until:5.5 ~mean_gap:0.03;
  Cluster.run c ~until:9.0;
  no_errors "lossy campaign" (Oracle.check_all (Cluster.oracle c))

(* ---------- data-plane hot paths: stash, stability floor, NACK, batching ---------- *)

(* Regression for the flush stash: multicasts issued while a view change is
   in progress are stashed until the next install.  The stash used to be
   rebuilt by list append per message — quadratic in a burst like this one —
   and is now a queue; what must not change is that the burst survives the
   install complete and in per-origin order. *)
let test_stash_order_during_flush () =
  let c = Cluster.vsync ~seed:515L ~n:3 () in
  Cluster.run c ~until:1.0;
  Cluster.apply_action c (Faults.Crash 2);
  let sim = Cluster.sim c in
  ignore
    (Sim.after sim 0.16 (fun () ->
         (* Inside the membership change window. *)
         for _ = 1 to 40 do
           Cluster.multicast_from c ~node:0 ~order:Endpoint.Total ();
           Cluster.multicast_from c ~node:1 ~order:Endpoint.Total ()
         done));
  Cluster.run c ~until:6.0;
  let oracle = Cluster.oracle c in
  no_errors "stash burst" (Oracle.check_all oracle);
  List.iter
    (fun node ->
      let proc = Proc_id.initial node in
      let mids = List.map snd (Oracle.deliveries_of oracle ~proc) in
      check Alcotest.int
        (Printf.sprintf "node %d delivers the whole burst" node)
        80 (List.length mids);
      (* Delivery order must respect multicast order per origin. *)
      let last = Hashtbl.create 4 in
      List.iter
        (fun (m : Oracle.msg_id) ->
          (match Hashtbl.find_opt last m.Oracle.origin with
          | Some prev when prev >= m.Oracle.mseq ->
              Alcotest.failf "node %d: origin order broken (%d after %d)" node
                m.Oracle.mseq prev
          | _ -> ());
          Hashtbl.replace last m.Oracle.origin m.Oracle.mseq)
        mids)
    [ 0; 1 ]

(* The stability floor used to be an assoc-list scan per (member, sender)
   pair; it is now a table-based fold.  Pin the rewrite against the original
   List.assoc_opt formulation on random report states. *)
let stability_floor_reference ~vectors ~members ~sender =
  List.fold_left
    (fun floor member ->
      let reported =
        match List.assoc_opt member vectors with
        | None -> 0
        | Some vector -> (
            match List.assoc_opt sender vector with Some n -> n | None -> 0)
      in
      min floor reported)
    max_int members

let test_stability_floor_matches_reference () =
  let rng = Vs_util.Rng.create 626L in
  let procs = Array.init 8 Proc_id.initial in
  for _ = 1 to 300 do
    let m = 1 + Vs_util.Rng.int rng 8 in
    let members = List.init m (fun i -> procs.(i)) in
    let vectors =
      List.filter_map
        (fun member ->
          if Vs_util.Rng.bool rng 0.8 then
            Some
              ( member,
                List.filter_map
                  (fun s ->
                    if Vs_util.Rng.bool rng 0.7 then
                      Some (s, Vs_util.Rng.int rng 50)
                    else None)
                  members )
          else None)
        members
    in
    List.iter
      (fun sender ->
        check Alcotest.int "floor matches assoc-list reference"
          (stability_floor_reference ~vectors ~members ~sender)
          (Endpoint.stability_floor_of ~vectors ~members ~sender))
      members
  done

(* After a stability report the trim pass only runs when something its
   floors read has changed: a table, a stream, the view, or a smear.  Pin
   the per-member [stabilized] counts of a run where a missed mark shows.
   Node 2 crashes, so its last report holds node 0's floor down.  The smear
   on node 0 lifts that floor while every other report repeats, and the
   install that drops node 2 discards whatever was not trimmed by then.
   Node 1's Deps_truncate and the second view's traffic follow.  The
   expected counts come from the code that refilled the table and trimmed
   on every report; without the smear mark node 0 reads 11, and without
   the table-change mark 9. *)
let test_stability_counts_pinned () =
  let c = Cluster.vsync ~seed:91L ~n:3 () in
  let sim = Cluster.sim c in
  let send_at time node =
    ignore (Sim.at sim time (fun () -> Cluster.multicast_from c ~node ()))
  in
  for i = 0 to 5 do
    send_at (0.9 +. (0.01 *. float_of_int i)) (i mod 3)
  done;
  for i = 0 to 3 do
    send_at (1.01 +. (0.01 *. float_of_int i)) 0
  done;
  for i = 0 to 7 do
    send_at (1.5 +. (0.02 *. float_of_int i)) (i mod 2)
  done;
  Cluster.run_script c
    [
      (1.0, Faults.Crash 2);
      (1.12, Faults.Corrupt (0, Faults.Stability_smear (2, 10)));
      (1.6, Faults.Corrupt (1, Faults.Deps_truncate (0, 2)));
    ];
  Cluster.run c ~until:2.5;
  check
    Alcotest.(list (pair int int))
    "(node, stabilized) per live member"
    [ (0, 15); (1, 11) ]
    (List.map
       (fun ep ->
         ( (Endpoint.me ep).Proc_id.node,
           (Endpoint.stats ep).Endpoint.stabilized ))
       (Cluster.live c))

(* The NACK retransmission rotation used to pick each round's target with
   List.nth over a freshly filtered peer list; it now indexes a cached
   array.  The rotation must be byte-identical to the old selection. *)
let nack_target_reference ~me ~members ~sender ~round =
  if round = 0 then sender
  else
    let peers = List.filter (fun m -> not (Proc_id.equal m me)) members in
    match peers with
    | [] -> sender
    | _ -> List.nth peers (round mod List.length peers)

let test_nack_targets_match_reference () =
  let rng = Vs_util.Rng.create 727L in
  let procs = Array.init 7 Proc_id.initial in
  for _ = 1 to 200 do
    let m = 1 + Vs_util.Rng.int rng 7 in
    let members = List.init m (fun i -> procs.(i)) in
    let me = procs.(Vs_util.Rng.int rng m) in
    let sender = procs.(Vs_util.Rng.int rng m) in
    let rounds = 12 in
    let expected =
      List.init rounds (fun round ->
          nack_target_reference ~me ~members ~sender ~round)
    in
    let got = Endpoint.nack_targets_of ~me ~members ~sender ~rounds in
    check Alcotest.bool "nack rotation matches List.nth reference" true
      (List.length got = rounds && List.for_all2 Proc_id.equal expected got)
  done

(* The batched wire format under loss, duplication and a crash: the full VS
   spec must hold, and batch rounds must actually have been shipped. *)
let batched_config =
  {
    Endpoint.default_config with
    Endpoint.batching = true;
    stability_interval = Some 0.05;
    pipeline_depth = 4;
    batch_max = 32;
  }

let test_batched_lossy_run () =
  let net_config =
    { Net.default_config with Net.drop_prob = 0.1; Net.dup_prob = 0.05 }
  in
  let c = Cluster.vsync ~seed:808L ~net_config ~config:batched_config ~n:4 () in
  Cluster.run c ~until:1.5;
  for _ = 1 to 40 do
    Cluster.multicast_from c ~node:0 ();
    Cluster.multicast_from c ~node:1 ~order:Endpoint.Total ();
    Cluster.multicast_from c ~node:2 ()
  done;
  Cluster.run c ~until:4.0;
  Cluster.apply_action c (Faults.Crash 3);
  Cluster.run c ~until:8.0;
  no_errors "batched lossy run" (Oracle.check_all (Cluster.oracle c));
  let st = Cluster.stats_total c in
  check Alcotest.bool "batch rounds shipped" true (st.Endpoint.batches_sent > 0);
  check Alcotest.bool "stable view reached" true (Cluster.stable_view_reached c)

let () =
  Alcotest.run "vs_vsync"
    [
      ( "formation",
        [
          Alcotest.test_case "initial singletons" `Quick test_initial_singleton_views;
          Alcotest.test_case "group forms" `Quick test_group_forms;
          Alcotest.test_case "messaging" `Quick test_messaging_all_delivered;
          Alcotest.test_case "crash shrinks" `Quick test_crash_shrinks_view;
          Alcotest.test_case "leave shrinks" `Quick test_leave_shrinks_view;
          Alcotest.test_case "recovery rejoins fresh" `Quick
            test_recovery_rejoins_as_new_process;
        ] );
      ( "partitions",
        [
          Alcotest.test_case "concurrent views" `Quick test_concurrent_partitions;
          Alcotest.test_case "merge carries priors" `Quick test_merge_carries_priors;
          Alcotest.test_case "agreement at boundary" `Quick
            test_agreement_across_partition_boundary;
        ] );
      ( "data path",
        [
          Alcotest.test_case "queued during flush" `Quick
            test_multicast_queued_during_flush;
          Alcotest.test_case "lossy network recovers" `Quick
            test_lossy_network_recovers;
          Alcotest.test_case "duplicating network" `Quick test_duplicating_network;
          Alcotest.test_case "stability trims logs" `Quick
            test_stability_trims_logs;
          Alcotest.test_case "stability disabled" `Quick
            test_stability_disabled_is_correct;
        ] );
      ( "causal order",
        [
          Alcotest.test_case "chains" `Quick test_causal_chains;
          QCheck_alcotest.to_alcotest causal_property;
        ] );
      ( "isis throttle",
        [
          Alcotest.test_case "converges" `Quick test_one_at_a_time_throttle;
          Alcotest.test_case "views grow by one" `Quick
            test_one_at_a_time_views_grow_by_one;
        ] );
      ( "annotations",
        [ Alcotest.test_case "collected at flush" `Quick test_annotations_collected ] );
      ( "hot paths",
        [
          Alcotest.test_case "stash order during flush" `Quick
            test_stash_order_during_flush;
          Alcotest.test_case "stability floor vs reference" `Quick
            test_stability_floor_matches_reference;
          Alcotest.test_case "stability counts pinned" `Quick
            test_stability_counts_pinned;
          Alcotest.test_case "nack rotation vs reference" `Quick
            test_nack_targets_match_reference;
          Alcotest.test_case "batched lossy run" `Quick test_batched_lossy_run;
        ] );
      ( "campaigns",
        [
          QCheck_alcotest.to_alcotest ~long:false random_campaign_property;
          Alcotest.test_case "lossy campaign" `Slow test_lossy_campaign;
          Alcotest.test_case "loss/dup sweep" `Slow test_loss_dup_sweep;
          Alcotest.test_case "peer-served retransmit" `Quick
            test_peer_served_retransmit;
        ] );
    ]
