(* Tests for the harness itself: the oracle checkers must detect seeded
   violations (a checker that cannot fail proves nothing), the fault-script
   generator must produce well-formed campaigns, and the statistics
   utilities must be correct. *)

module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module Oracle = Vs_harness.Oracle
module Explain = Vs_obs.Explain
module Faults = Vs_harness.Faults
module Cluster = Vs_harness.Cluster
module Endpoint = Vs_vsync.Endpoint
module Evs = Evs_core.Evs
module E_view = Evs_core.E_view
module Event = Vs_obs.Event
module Recorder = Vs_obs.Recorder
module Lineage = Vs_obs.Lineage
module Table = Vs_stats.Table
module Summary = Vs_stats.Summary

let check = Alcotest.check

let p n = Proc_id.initial n
let vid e = View.Id.make ~epoch:e ~proposer:(p 0)
let mid sender index = { Oracle.origin = p sender; mseq = index }

(* ---------- oracle detects violations ---------- *)

(* Verdicts compare by what they name — property, message, processes,
   views — not by their one-line rendering. *)
let verdicts =
  let pp ppf (v : Explain.violation) =
    Format.fprintf ppf "%s [%s] [%s]"
      (match v.msg with Some m -> Oracle.msg_id_to_string m | None -> "-")
      (String.concat "," (List.map Proc_id.to_string v.procs))
      (String.concat "," (List.map View.Id.to_string v.vids))
  in
  Alcotest.list
    (Alcotest.testable pp (fun (a : Explain.violation) b ->
         a.property = b.property && a.msg = b.msg && a.procs = b.procs
         && a.vids = b.vids))

let verdict property ?msg procs vids =
  { Explain.property; msg; procs; vids; detail = "" }

let test_oracle_clean_run () =
  let o = Oracle.create () in
  let v1 = vid 1 and v2 = vid 2 in
  Oracle.record_send o (mid 0 0);
  List.iter
    (fun q ->
      Oracle.record_install o ~proc:(p q) ~view:(View.make v1 [ p 0; p 1 ])
        ~prior:(View.Id.initial (p q)) ~time:0.1;
      Oracle.record_delivery o ~proc:(p q) ~vid:v1 (mid 0 0) ~time:0.2;
      Oracle.record_install o ~proc:(p q) ~view:(View.make v2 [ p 0; p 1 ])
        ~prior:v1 ~time:0.3)
    [ 0; 1 ];
  check (Alcotest.list Alcotest.string) "clean" [] (Oracle.check_all o);
  check Alcotest.int "counts installs" 4 (Oracle.total_installs o);
  check Alcotest.int "counts deliveries" 2 (Oracle.total_deliveries o);
  check Alcotest.int "distinct views" 2 (Oracle.distinct_views o)

let test_oracle_detects_agreement_violation () =
  let o = Oracle.create () in
  let v1 = vid 1 and v2 = vid 2 in
  Oracle.record_send o (mid 0 0);
  (* Both survive v1 -> v2 but only p0 delivered the message in v1. *)
  List.iter
    (fun q ->
      Oracle.record_install o ~proc:(p q) ~view:(View.make v1 [ p 0; p 1 ])
        ~prior:(View.Id.initial (p q)) ~time:0.1)
    [ 0; 1 ];
  Oracle.record_delivery o ~proc:(p 0) ~vid:v1 (mid 0 0) ~time:0.2;
  List.iter
    (fun q ->
      Oracle.record_install o ~proc:(p q) ~view:(View.make v2 [ p 0; p 1 ])
        ~prior:v1 ~time:0.3)
    [ 0; 1 ];
  check verdicts "agreement violation detected"
    [ verdict Explain.Agreement ~msg:(mid 0 0) [ p 0; p 1 ] [ v1; v2 ] ]
    (Oracle.agreement_violations o)

let test_oracle_detects_uniqueness_violation () =
  let o = Oracle.create () in
  Oracle.record_send o (mid 0 0);
  Oracle.record_delivery o ~proc:(p 0) ~vid:(vid 1) (mid 0 0) ~time:0.1;
  Oracle.record_delivery o ~proc:(p 1) ~vid:(vid 2) (mid 0 0) ~time:0.2;
  check verdicts "uniqueness violation detected"
    [ verdict Explain.Uniqueness ~msg:(mid 0 0) [ p 0; p 1 ] [ vid 2; vid 1 ] ]
    (Oracle.uniqueness_violations o)

let test_oracle_detects_integrity_violations () =
  let o = Oracle.create () in
  Oracle.record_send o (mid 0 0);
  (* Duplicate delivery. *)
  Oracle.record_delivery o ~proc:(p 0) ~vid:(vid 1) (mid 0 0) ~time:0.1;
  Oracle.record_delivery o ~proc:(p 0) ~vid:(vid 1) (mid 0 0) ~time:0.2;
  (* Phantom: never sent. *)
  Oracle.record_delivery o ~proc:(p 0) ~vid:(vid 1) (mid 9 3) ~time:0.3;
  check verdicts "duplicate, then phantom"
    [
      verdict Explain.Integrity ~msg:(mid 0 0) [ p 0 ] [ vid 1 ];
      verdict Explain.Integrity ~msg:(mid 9 3) [ p 0 ] [ vid 1 ];
    ]
    (Oracle.integrity_violations o)

let test_oracle_detects_fifo_violation () =
  let o = Oracle.create () in
  Oracle.record_send o (mid 0 0);
  Oracle.record_send o (mid 0 1);
  Oracle.record_delivery o ~proc:(p 1) ~vid:(vid 1) (mid 0 1) ~time:0.1;
  Oracle.record_delivery o ~proc:(p 1) ~vid:(vid 1) (mid 0 0) ~time:0.2;
  check verdicts "fifo inversion detected"
    [ verdict Explain.Fifo ~msg:(mid 0 0) [ p 1 ] [ vid 1 ] ]
    (Oracle.fifo_violations o)

let test_oracle_fifo_exempts_total_order () =
  let o = Oracle.create () in
  Oracle.record_send o ~order:`Total (mid 0 0);
  Oracle.record_send o (mid 0 1);
  (* The totally-ordered message may arrive after a later FIFO one. *)
  Oracle.record_delivery o ~proc:(p 1) ~vid:(vid 1) (mid 0 1) ~time:0.1;
  Oracle.record_delivery o ~proc:(p 1) ~vid:(vid 1) (mid 0 0) ~time:0.2;
  check verdicts "no false positive" [] (Oracle.fifo_violations o)

let test_oracle_detects_total_order_violation () =
  let o = Oracle.create () in
  Oracle.record_send o ~order:`Total (mid 0 0);
  Oracle.record_send o ~order:`Total (mid 1 0);
  (* p2 and p3 deliver the two totally-ordered messages in opposite
     orders within one view. *)
  Oracle.record_delivery o ~proc:(p 2) ~vid:(vid 1) (mid 0 0) ~time:0.1;
  Oracle.record_delivery o ~proc:(p 2) ~vid:(vid 1) (mid 1 0) ~time:0.2;
  Oracle.record_delivery o ~proc:(p 3) ~vid:(vid 1) (mid 1 0) ~time:0.1;
  Oracle.record_delivery o ~proc:(p 3) ~vid:(vid 1) (mid 0 0) ~time:0.2;
  check verdicts "total-order violation detected"
    [ verdict Explain.Total_order ~msg:(mid 0 0) [ p 2; p 3 ] [ vid 1 ] ]
    (Oracle.total_order_violations o)

(* Section 6 verdicts name what Explain slices by: a 6.1 verdict the two
   processes and the view, a 6.3 verdict the observer, the pair and both
   views.  The details are the checkers' one-line renderings. *)
let test_oracle_section6_verdicts_attributable () =
  let v1 = View.make (vid 1) [ p 0; p 1; p 2 ] in
  let v2 = View.make (vid 2) [ p 0; p 1; p 2 ] in
  let ok = function
    | Ok (ev, _) -> ev
    | Error `No_effect -> Alcotest.fail "merge had no effect"
  in
  let svset_merge ev qs =
    ok
      (E_view.apply_svset_merge ev
         (List.map (fun q -> E_view.Svset_id.Fresh (p q)) qs))
  in
  let fresh = E_view.rebuild v1 [] in
  (* every member's Install of v1 and of v2 *)
  let installs =
    List.concat_map
      (fun (time, (view : View.t)) ->
        List.map
          (fun proc ->
            {
              Recorder.time;
              event =
                Event.Install
                  { proc; vid = view.id; members = view.members; sync = 0 };
            })
          view.members)
      [ (0.1, v1); (0.5, v2) ]
  in
  let lineage = Lineage.of_entries installs in
  let attributable what expected details vs =
    check verdicts what expected vs;
    check
      Alcotest.(list string)
      (what ^ " details") details
      (List.map (fun (v : Explain.violation) -> v.detail) vs);
    List.iter
      (fun v ->
        check Alcotest.bool (what ^ " slices") true
          ((Explain.explain ~lineage ~entries:installs v).Explain.slice <> []))
      vs
  in
  (* 6.1: p0 and p1 apply different merges at the same position of v1. *)
  let o = Oracle.create () in
  let record q eview cause time =
    Oracle.record_eview o ~proc:(p q) ~eview ~cause ~time
  in
  record 0 fresh "view" 0.1;
  record 1 fresh "view" 0.1;
  record 0 (svset_merge fresh [ 0; 1 ]) "svset-merge" 0.2;
  record 1 (svset_merge fresh [ 1; 2 ]) "svset-merge" 0.2;
  attributable "6.1"
    [ verdict Explain.Evs_total_order [ p 0; p 1 ] [ vid 1 ] ]
    [
      "total-order: p0 and p1 disagree on e-view (v1@p0, 1): v1@p0:1 \
       {[p2]}{[p0][p1]} vs v1@p0:1 {[p0]}{[p1][p2]}";
    ]
    (Oracle.eview_order_violations o);
  (* 6.3: at p0, p1 and p2 shared a subview in v1 and came straight to v2
     together, where they no longer share one. *)
  let o = Oracle.create () in
  let joined =
    ok
      (E_view.apply_subview_merge (svset_merge fresh [ 1; 2 ])
         [ E_view.Subview_id.Fresh (p 1); E_view.Subview_id.Fresh (p 2) ])
  in
  Oracle.record_eview o ~proc:(p 0) ~eview:joined ~cause:"subview-merge"
    ~time:0.3;
  Oracle.record_eview o ~proc:(p 0) ~eview:(E_view.rebuild v2 []) ~cause:"view"
    ~time:0.5;
  List.iter
    (fun q ->
      Oracle.record_install o ~proc:(p q) ~view:v2 ~prior:(vid 1) ~time:0.5)
    [ 1; 2 ];
  let named = verdict Explain.Evs_structure [ p 0; p 1; p 2 ] [ vid 1; vid 2 ] in
  attributable "6.3" [ named; named ]
    [
      "structure@p0: p1,p2 shared an sv-set in v1@p0 but not in v2@p0";
      "structure@p0: p1,p2 shared a subview in v1@p0 but not in v2@p0";
    ]
    (Oracle.structure_violations o)

(* ---------- fault scripts ---------- *)

let script_gen =
  QCheck.make
    QCheck.Gen.(
      map2
        (fun seed n -> (Int64.of_int seed, 2 + n))
        (int_bound 100_000) (int_bound 6))

let script_property name f =
  QCheck.Test.make ~name ~count:100 script_gen (fun (seed, n) ->
      let rng = Vs_util.Rng.create seed in
      let nodes = List.init n (fun i -> i) in
      let script =
        Faults.random_script rng ~nodes ~start:1.0 ~duration:5.0 ~mean_gap:0.3 ()
      in
      f nodes script)

let scripts_sorted =
  script_property "scripts are time-ordered" (fun _nodes script ->
      let times = List.map fst script in
      let rec nondecreasing = function
        | a :: b :: rest -> a <= b && nondecreasing (b :: rest)
        | _ -> true
      in
      nondecreasing times)

let scripts_keep_someone_alive =
  script_property "scripts never kill the whole universe" (fun nodes script ->
      let down = Hashtbl.create 8 in
      List.for_all
        (fun (_, action) ->
          (match action with
          | Faults.Crash node -> Hashtbl.replace down node ()
          | Faults.Recover node -> Hashtbl.remove down node
          | Faults.Partition _ | Faults.Heal | Faults.Corrupt _ -> ());
          Hashtbl.length down < List.length nodes)
        script)

let scripts_end_recovered =
  script_property "scripts end healed and fully recovered" (fun _nodes script ->
      let down = Hashtbl.create 8 in
      let partitioned = ref false in
      List.iter
        (fun (_, action) ->
          match action with
          | Faults.Crash node -> Hashtbl.replace down node ()
          | Faults.Recover node -> Hashtbl.remove down node
          | Faults.Partition _ -> partitioned := true
          | Faults.Heal -> partitioned := false
          | Faults.Corrupt _ -> ())
        script;
      Hashtbl.length down = 0 && not !partitioned)

let scripts_respect_window =
  script_property "scripts respect the start/duration window"
    (fun _nodes script ->
      (* Churn stays inside [start, start + duration); the closing heal +
         recoveries land at the deadline (within a short fixed tail). *)
      let start = 1.0 and duration = 5.0 in
      let deadline = start +. duration in
      List.for_all
        (fun (time, action) ->
          match action with
          | Faults.Heal | Faults.Recover _ ->
              time >= start && time <= deadline +. 0.5
          | Faults.Crash _ | Faults.Partition _ | Faults.Corrupt _ ->
              time >= start && time < deadline)
        script)

let scripts_valid_actions =
  script_property "crash only up nodes, recover only down ones"
    (fun _nodes script ->
      let down = Hashtbl.create 8 in
      List.for_all
        (fun (_, action) ->
          match action with
          | Faults.Crash node ->
              let ok = not (Hashtbl.mem down node) in
              Hashtbl.replace down node ();
              ok
          | Faults.Recover node ->
              let ok = Hashtbl.mem down node in
              Hashtbl.remove down node;
              ok
          | Faults.Partition comps -> List.for_all (fun c -> c <> []) comps
          | Faults.Heal -> true
          | Faults.Corrupt _ -> true)
        script)


(* ---------- transient (corruption-carrying) fault scripts ---------- *)

let transient_script ?(corrupt_weight = 1.2) seed n =
  let rng = Vs_util.Rng.create seed in
  let nodes = List.init n (fun i -> i) in
  ( nodes,
    Faults.random_script rng ~nodes ~start:1.0 ~duration:5.0 ~mean_gap:0.3
      ~corrupt_weight () )

let transient_script_property name f =
  QCheck.Test.make ~name ~count:100 script_gen (fun (seed, n) ->
      let nodes, script = transient_script seed n in
      f nodes script)

let transient_scripts_end_recovered =
  transient_script_property
    "transient scripts end healed and fully recovered"
    (fun _nodes script ->
      let down = Hashtbl.create 8 in
      let partitioned = ref false in
      List.iter
        (fun (_, action) ->
          match action with
          | Faults.Crash node -> Hashtbl.replace down node ()
          | Faults.Recover node -> Hashtbl.remove down node
          | Faults.Partition _ -> partitioned := true
          | Faults.Heal -> partitioned := false
          | Faults.Corrupt _ -> ())
        script;
      Hashtbl.length down = 0 && not !partitioned)

let transient_scripts_keep_someone_alive =
  transient_script_property
    "transient scripts never kill the whole universe"
    (fun nodes script ->
      let down = Hashtbl.create 8 in
      List.for_all
        (fun (_, action) ->
          (match action with
          | Faults.Crash node -> Hashtbl.replace down node ()
          | Faults.Recover node -> Hashtbl.remove down node
          | Faults.Partition _ | Faults.Heal | Faults.Corrupt _ -> ());
          Hashtbl.length down < List.length nodes)
        script)

let transient_scripts_target_live_nodes =
  transient_script_property
    "corruptions only target nodes alive at injection time"
    (fun _nodes script ->
      let down = Hashtbl.create 8 in
      let up node = not (Hashtbl.mem down node) in
      List.for_all
        (fun (_, action) ->
          match action with
          | Faults.Crash node ->
              Hashtbl.replace down node ();
              true
          | Faults.Recover node ->
              Hashtbl.remove down node;
              true
          | Faults.Partition _ | Faults.Heal -> true
          | Faults.Corrupt (node, kind) ->
              (* Both the corrupted node and any auxiliary node the kind
                 parameterizes over (smear source, truncated sender) are
                 drawn from the alive set. *)
              up node
              &&
              (match kind with
              | Faults.Stability_smear (m, _) | Faults.Deps_truncate (m, _) ->
                  up m
              | Faults.Seq_skew _ | Faults.View_skew _ -> true))
        script)

let transient_scripts_respect_window =
  transient_script_property
    "transient scripts keep churn in-window with a short closing tail"
    (fun _nodes script ->
      (* Corruptions stay inside the churn window; after the deadline only
         the closing heal + recoveries and the post-corruption kick (one
         crash/recover pair) may appear, all within a fixed short tail. *)
      let start = 1.0 and duration = 5.0 in
      let deadline = start +. duration in
      List.for_all
        (fun (time, action) ->
          match action with
          | Faults.Heal | Faults.Recover _ ->
              time >= start && time <= deadline +. 0.5
          | Faults.Crash _ ->
              time >= start
              && (time < deadline
                 || (time > deadline && time <= deadline +. 0.5))
          | Faults.Partition _ | Faults.Corrupt _ ->
              time >= start && time < deadline)
        script)

let zero_weight_matches_default =
  QCheck.Test.make ~name:"corrupt_weight 0 leaves scripts byte-identical"
    ~count:100 script_gen (fun (seed, n) ->
      let rng = Vs_util.Rng.create seed in
      let nodes = List.init n (fun i -> i) in
      let plain =
        Faults.random_script rng ~nodes ~start:1.0 ~duration:5.0 ~mean_gap:0.3
          ()
      in
      let _, explicit = transient_script ~corrupt_weight:0.0 seed n in
      plain = explicit)

(* ---------- cluster ---------- *)

(* A plain cluster's oracle judges Section 6 as an EVS cluster's does, and
   finds nothing however the membership churns: it records no e-views. *)
let test_cluster_vsync_records_no_eviews () =
  let c = Cluster.vsync ~seed:5L ~n:4 () in
  Cluster.run_script c
    [
      (1.0, Faults.Partition [ [ 0; 1 ]; [ 2; 3 ] ]);
      (2.5, Faults.Heal);
      (3.5, Faults.Crash 3);
      (4.5, Faults.Recover 3);
    ];
  Cluster.pump_traffic c ~start:0.5 ~until:5.0 ~mean_gap:0.1;
  Cluster.run c ~until:8.0;
  let o = Cluster.oracle c in
  check Alcotest.bool "views changed" true (Oracle.distinct_views o > 1);
  check Alcotest.int "no e-view records" 0
    (List.length (Oracle.eview_records o));
  check Alcotest.int "no e-view changes" 0 (Oracle.eview_changes o);
  check verdicts "6.1 finds nothing" [] (Oracle.eview_order_violations o);
  check verdicts "6.3 finds nothing" [] (Oracle.structure_violations o)

let test_cluster_evs_stats_total () =
  (* Loss makes the NACK, retransmit and retry counters non-zero. *)
  let net_config = { Vs_net.Net.default_config with drop_prob = 0.3 } in
  let c = Cluster.evs ~seed:5L ~net_config ~n:4 () in
  Cluster.run c ~until:2.0;
  for node = 0 to 3 do
    Cluster.multicast_from c ~node ();
    Cluster.multicast_from c ~node ~order:Endpoint.Total ()
  done;
  Cluster.run c ~until:3.0;
  let live = Cluster.live c in
  let counters (s : Endpoint.stats) =
    Endpoint.
      [
        s.data_sent;
        s.to_dropped;
        s.nacks_sent;
        s.retransmits;
        s.peer_retransmits;
        s.stabilized;
        s.ctl_retries;
        s.batches_sent;
      ]
  in
  let summed =
    List.fold_left
      (fun acc e -> List.map2 ( + ) acc (counters (Evs.endpoint_stats e)))
      (List.init 8 (fun _ -> 0))
      live
  in
  let total = Cluster.stats_total c in
  check Alcotest.int "four handles" 4 (List.length live);
  check Alcotest.(list int) "every counter, summed" summed (counters total);
  check Alcotest.int "one data message per multicast" 8
    total.Endpoint.data_sent;
  check Alcotest.int "one e-view record per install" 8
    (List.length (Oracle.eview_records (Cluster.oracle c)))

(* The cluster, not the fleet, records a corruption with the oracle — once,
   under the field the endpoint names, and only on a live member. *)
let test_cluster_records_corruption () =
  let c = Cluster.vsync ~seed:5L ~n:4 () in
  Cluster.run c ~until:1.0;
  Cluster.apply_action c (Faults.Crash 1);
  Cluster.apply_action c (Faults.Corrupt (1, Faults.Seq_skew 3));
  Cluster.apply_action c (Faults.Corrupt (0, Faults.Seq_skew 3));
  match Oracle.corruptions (Cluster.oracle c) with
  | [ (proc, field, time) ] ->
      check Alcotest.string "process" "p0" (Proc_id.to_string proc);
      check Alcotest.string "field" "send_seq" field;
      check (Alcotest.float 1e-9) "time" 1.0 time
  | l -> Alcotest.failf "expected one corruption, got %d" (List.length l)

(* ---------- stats ---------- *)

let test_table_rendering () =
  let t = Table.create ~title:"demo" ~columns:[ "name"; "value" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "beta-long"; "22" ];
  let s = Table.to_string t in
  check Alcotest.bool "title present" true
    (String.length s > 0 && String.sub s 0 7 = "== demo");
  check Alcotest.bool "row present" true
    (String.length s > 0
    && List.exists
         (fun line -> line = "beta-long  22")
         (String.split_on_char '\n' s));
  check Alcotest.bool "wrong arity refused" true
    (try Table.add_row t [ "only-one" ]; false with Invalid_argument _ -> true)

let test_table_format_helpers () =
  check Alcotest.string "fint" "42" (Table.fint 42);
  check Alcotest.string "ffloat" "3.14" (Table.ffloat ~decimals:2 3.14159);
  check Alcotest.string "fpct" "12.5%" (Table.fpct 0.125);
  check Alcotest.string "fbool" "yes" (Table.fbool true)

let test_summary () =
  let s = Summary.of_list [ 4.; 1.; 3.; 2. ] in
  check Alcotest.int "count" 4 (Summary.count s);
  check (Alcotest.float 1e-9) "mean" 2.5 (Summary.mean s);
  check (Alcotest.float 1e-9) "min" 1. (Summary.min_value s);
  check (Alcotest.float 1e-9) "max" 4. (Summary.max_value s);
  check (Alcotest.float 1e-9) "median" 2. (Summary.percentile s 0.5);
  check (Alcotest.float 1e-9) "p100" 4. (Summary.percentile s 1.0);
  check Alcotest.bool "stddev positive" true (Summary.stddev s > 0.);
  let empty = Summary.create () in
  check (Alcotest.float 1e-9) "empty mean" 0. (Summary.mean empty);
  check (Alcotest.float 1e-9) "empty percentile" 0. (Summary.percentile empty 0.5)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "vs_harness"
    [
      ( "oracle",
        [
          Alcotest.test_case "clean run" `Quick test_oracle_clean_run;
          Alcotest.test_case "detects agreement violation" `Quick
            test_oracle_detects_agreement_violation;
          Alcotest.test_case "detects uniqueness violation" `Quick
            test_oracle_detects_uniqueness_violation;
          Alcotest.test_case "detects integrity violations" `Quick
            test_oracle_detects_integrity_violations;
          Alcotest.test_case "detects fifo violation" `Quick
            test_oracle_detects_fifo_violation;
          Alcotest.test_case "fifo exempts total order" `Quick
            test_oracle_fifo_exempts_total_order;
          Alcotest.test_case "detects total-order violation" `Quick
            test_oracle_detects_total_order_violation;
          Alcotest.test_case "section 6 verdicts are attributable" `Quick
            test_oracle_section6_verdicts_attributable;
        ] );
      ( "faults",
        [
          qt scripts_sorted;
          qt scripts_keep_someone_alive;
          qt scripts_end_recovered;
          qt scripts_respect_window;
          qt scripts_valid_actions;
          qt transient_scripts_end_recovered;
          qt transient_scripts_keep_someone_alive;
          qt transient_scripts_target_live_nodes;
          qt transient_scripts_respect_window;
          qt zero_weight_matches_default;
        ] );
      (* Alcotest pads every group to the widest group name and truncates
         long test names to fit; a group name over six characters would
         shorten the printed names in "faults". *)
      ( "clust",
        [
          Alcotest.test_case "plain cluster records no e-views" `Quick
            test_cluster_vsync_records_no_eviews;
          Alcotest.test_case "evs stats_total sums the handles" `Quick
            test_cluster_evs_stats_total;
          Alcotest.test_case "corruption recorded once" `Quick
            test_cluster_records_corruption;
        ] );
      ( "stats",
        [
          Alcotest.test_case "table rendering" `Quick test_table_rendering;
          Alcotest.test_case "format helpers" `Quick test_table_format_helpers;
          Alcotest.test_case "summary" `Quick test_summary;
        ] );
    ]
