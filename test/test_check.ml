(* Tests for the schedule explorer stack (lib/check) and for the oracle
   checkers under mutated recordings of real runs.

   - explorer smoke: a fixed small seed set swept on every build, so tier-1
     exercises the whole campaign/driver/checker path;
   - replay determinism: the same spec always produces the same outcome;
   - repro artifacts: exact s-expression round-trips, error reporting;
   - shrinker: synthetic failure predicates (structural and run-derived)
     minimize to strictly smaller specs that still fail;
   - oracle mutations: recordings of a genuine run, deliberately corrupted
     (dropped delivery, cross-view duplicate, spurious message), make the
     corresponding checker fire — the checkers provably can detect bugs;
   - corpus replay: every checked-in repro artifact under test/corpus/
     parses and runs clean (a minimized schedule that once found a bug can
     never silently regress), and its failure attribution is deterministic
     and equal to the committed <name>.explain.txt. *)

module Sim = Vs_sim.Sim
module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module Faults = Vs_harness.Faults
module Oracle = Vs_harness.Oracle
module Driver = Vs_harness.Driver
module Cluster = Vs_harness.Cluster
module Campaign = Vs_check.Campaign
module Explorer = Vs_check.Explorer
module Shrink = Vs_check.Shrink
module Repro = Vs_check.Repro
module Explain_run = Vs_check.Explain_run
module Recorder = Vs_obs.Recorder

let check = Alcotest.check

let p n = Proc_id.initial n

(* ---------- explorer smoke: the CI seed budget ---------- *)

let test_explorer_smoke () =
  let failures = ref [] in
  let report =
    Explorer.explore ~seeds:25 ~nodes:4 ~quick:true
      ~progress:(fun ~seed spec outcome ->
        if outcome.Campaign.violations <> [] then
          failures := (seed, spec, outcome) :: !failures)
      ()
  in
  List.iter
    (fun (seed, spec, (outcome : Campaign.outcome)) ->
      Printf.printf "seed %d (%s):\n" seed (Campaign.describe spec);
      List.iter print_endline outcome.Campaign.violations)
    !failures;
  check Alcotest.int "campaigns = seeds x protocols" 50
    report.Explorer.campaigns;
  check Alcotest.int "no violations over the smoke seed set" 0
    (List.length report.Explorer.failures);
  check Alcotest.bool "the sweep actually delivered traffic" true
    (report.Explorer.total_deliveries > 0
    && report.Explorer.total_installs > 0)

(* ---------- replay determinism ---------- *)

let outcomes_equal (a : Campaign.outcome) (b : Campaign.outcome) =
  a.Campaign.violations = b.Campaign.violations
  && a.Campaign.deliveries = b.Campaign.deliveries
  && a.Campaign.installs = b.Campaign.installs
  && a.Campaign.distinct_views = b.Campaign.distinct_views
  && a.Campaign.eview_changes = b.Campaign.eview_changes
  && a.Campaign.events = b.Campaign.events
  && a.Campaign.stable = b.Campaign.stable

let test_replay_deterministic () =
  List.iter
    (fun protocol ->
      let spec = Campaign.generate ~protocol ~seed:7 ~nodes:4 ~quick:true () in
      let o1 = Campaign.run spec in
      let o2 = Campaign.run spec in
      check Alcotest.bool
        ("identical outcomes (" ^ Driver.protocol_to_string protocol ^ ")")
        true (outcomes_equal o1 o2);
      check Alcotest.bool "the run did something" true
        (o1.Campaign.events > 0 && o1.Campaign.deliveries > 0))
    [ Driver.Vsync; Driver.Evs ]

let test_replay_from_artifact_deterministic () =
  (* Through the serialized form too: parse . print = identity run. *)
  let spec = Campaign.generate ~seed:13 ~nodes:4 ~quick:true () in
  match Repro.of_string (Repro.to_string spec) with
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg
  | Ok spec' ->
      check Alcotest.bool "parsed spec equals original" true
        (Campaign.equal_spec spec spec');
      check Alcotest.bool "identical outcomes" true
        (outcomes_equal (Campaign.run spec) (Campaign.run spec'))

(* ---------- repro artifacts ---------- *)

let roundtrip_property =
  QCheck.Test.make ~name:"repro artifacts round-trip exactly" ~count:50
    QCheck.(
      make
        Gen.(
          map2
            (fun seed nodes -> (seed, 2 + nodes))
            (int_bound 100_000) (int_bound 6)))
    (fun (seed, nodes) ->
      let spec = Campaign.generate ~seed ~nodes ~quick:false () in
      match Repro.of_string (Repro.to_string spec) with
      | Ok spec' -> Campaign.equal_spec spec spec'
      | Error _ -> false)

let test_repro_errors () =
  let bad text =
    match Repro.of_string text with Ok _ -> false | Error _ -> true
  in
  check Alcotest.bool "empty input rejected" true (bad "");
  check Alcotest.bool "unclosed paren rejected" true (bad "((seed 1)");
  check Alcotest.bool "missing fields rejected" true (bad "((seed 1))");
  check Alcotest.bool "bad action rejected" true
    (bad
       "((seed 1) (protocol vsync) (nodes 2) (loss 0) (dup 0) (delay-min \
        0.001) (delay-max 0.01) (traffic-gap 0) (traffic-until 1) (horizon 2) \
        (script ((1 (explode 3)))))");
  (* Specs that parse but cannot replay: a nan horizon is never reached, a
     nan script time runs the engine on a nan clock, and a negative time or
     inverted delay bounds raise inside Campaign.run. *)
  let spec ?(delay_min = "0.001") ?(delay_max = "0.01") ?(horizon = "2")
      ?(time = "1") () =
    Printf.sprintf
      "((seed 1) (protocol vsync) (nodes 2) (loss 0) (dup 0) (delay-min %s) \
       (delay-max %s) (traffic-gap 0) (traffic-until 1) (horizon %s) (script \
       ((%s (crash 1)))))"
      delay_min delay_max horizon time
  in
  check Alcotest.bool "the well-formed spec parses" false (bad (spec ()));
  check Alcotest.bool "nan horizon rejected" true (bad (spec ~horizon:"nan" ()));
  check Alcotest.bool "infinite horizon rejected" true
    (bad (spec ~horizon:"inf" ()));
  check Alcotest.bool "nan script time rejected" true
    (bad (spec ~time:"nan" ()));
  check Alcotest.bool "negative script time rejected" true
    (bad (spec ~time:"-1" ()));
  check Alcotest.bool "delay-min above delay-max rejected" true
    (bad (spec ~delay_min:"0.02" ()));
  check Alcotest.bool "negative delay-min rejected" true
    (bad (spec ~delay_min:"-0.001" ~delay_max:"0" ()))

(* Random edits of a generated artifact.  Whatever the text, [of_string]
   returns, and an [Ok] spec re-prints to text that parses back to an equal
   spec.  An edit either replaces a whole atom or splices a token in at an
   offset; the tokens are the ones most likely to break a replay. *)
let edit_tokens =
  [| "nan"; "-nan"; "inf"; "-inf"; "-1"; "-0"; "0"; "7"; "0.25"; "1e-3";
     "1e309"; "0x1p-2"; "("; ")"; " "; ";"; "-"; "." |]

let atom_spans text =
  let n = String.length text in
  let is_atom i =
    match text.[i] with
    | ' ' | '\t' | '\n' | '\r' | '(' | ')' | ';' -> false
    | _ -> true
  in
  let rec scan i acc =
    if i >= n then List.rev acc
    else if not (is_atom i) then scan (i + 1) acc
    else
      let j = ref i in
      while !j < n && is_atom !j do
        incr j
      done;
      scan !j ((i, !j - i) :: acc)
  in
  scan 0 []

let apply_edit text (whole_atom, at, token) =
  let splice pos len =
    String.sub text 0 pos ^ token
    ^ String.sub text (pos + len) (String.length text - pos - len)
  in
  match atom_spans text with
  | spans when whole_atom && spans <> [] ->
      let pos, len = List.nth spans (at mod List.length spans) in
      splice pos len
  | _ -> splice (at mod (String.length text + 1)) 0

let repro_edit_property =
  QCheck.Test.make ~name:"edited artifacts parse or fail, and re-print"
    ~count:300
    QCheck.(
      make
        ~print:(fun (seed, edits) ->
          Printf.sprintf "seed %d, edits %s" seed
            (String.concat "; "
               (List.map
                  (fun (w, at, tok) ->
                    Printf.sprintf "%s %d %S" (if w then "atom" else "at") at
                      tok)
                  edits)))
        Gen.(
          pair (int_bound 10_000)
            (list_size (int_range 1 3)
               (triple bool (int_bound 10_000) (oneofa edit_tokens)))))
    (fun (seed, edits) ->
      let spec =
        Campaign.generate ~transient:(seed mod 2 = 0) ~seed ~nodes:4
          ~quick:true ()
      in
      let text = List.fold_left apply_edit (Repro.to_string spec) edits in
      match Repro.of_string text with
      | exception e ->
          QCheck.Test.fail_reportf "raised %s on %S" (Printexc.to_string e)
            text
      | Error _ -> true
      | Ok spec -> (
          match Repro.of_string (Repro.to_string spec) with
          | Ok again -> Campaign.equal_spec spec again
          | Error _ -> false))

(* ---------- shrinker ---------- *)

(* A deterministic structural failure: the script still crashes node 1.
   The shrinker must strip everything else — all other actions, the spare
   nodes, every fault knob — while preserving the predicate. *)
let test_shrink_structural () =
  let has_crash_1 spec =
    List.exists (fun (_, a) -> a = Faults.Crash 1) spec.Campaign.script
  in
  let rec find_seed seed =
    if seed > 200 then Alcotest.fail "no seed with a crash of node 1?"
    else
      let spec = Campaign.generate ~seed ~nodes:5 ~quick:false () in
      if has_crash_1 spec && List.length spec.Campaign.script >= 5 then spec
      else find_seed (seed + 1)
  in
  let original = find_seed 1 in
  let shrunk, stats = Shrink.shrink ~failing:has_crash_1 original in
  check Alcotest.bool "still fails" true (has_crash_1 shrunk);
  check Alcotest.bool "strictly smaller" true
    (Campaign.weight shrunk < Campaign.weight original);
  check Alcotest.int "single action remains" 1
    (List.length shrunk.Campaign.script);
  check Alcotest.int "nodes reduced to 2" 2 shrunk.Campaign.nodes;
  check (Alcotest.float 1e-9) "loss knob off" 0.
    shrunk.Campaign.net.Vs_net.Net.drop_prob;
  check (Alcotest.float 1e-9) "traffic off" 0. shrunk.Campaign.traffic_gap;
  check Alcotest.bool "shrinking did some work" true
    (stats.Shrink.accepted > 0 && stats.Shrink.attempts >= stats.Shrink.accepted)

(* A run-derived failure: the campaign's outcome (from genuinely re-running
   each candidate) keeps showing at least three distinct views.  This is the
   mode the explorer uses on a real violation, where the predicate is
   "Oracle.check_all still reports something". *)
let test_shrink_run_derived () =
  let failing spec =
    spec.Campaign.nodes >= 2
    && (Campaign.run spec).Campaign.distinct_views >= 3
  in
  let original = Campaign.generate ~seed:3 ~nodes:4 ~quick:true () in
  if not (failing original) then
    Alcotest.fail "expected seed 3 to produce >= 3 distinct views";
  let shrunk, _stats = Shrink.shrink ~failing original in
  check Alcotest.bool "still fails after shrinking" true (failing shrunk);
  check Alcotest.bool "strictly smaller" true
    (Campaign.weight shrunk < Campaign.weight original)

(* ---------- oracle checkers under mutated real recordings ---------- *)

module Explain = Vs_obs.Explain
module Event = Vs_obs.Event
module Lineage = Vs_obs.Lineage

(* Render the explanations an oracle's structured verdicts produce.  The
   mutated recordings have no event stream, so the slices are empty — the
   point is that the violation itself names the property, the offending
   message and the views involved. *)
let explain_text violations =
  let lineage = Lineage.of_entries [] in
  String.concat ""
    (List.map
       (fun v ->
         Explain.to_text
           (Explain.explain ~lineage ~entries:[] v))
       violations)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let assert_mentions text parts =
  List.iter
    (fun part ->
      if not (contains text part) then
        Alcotest.failf "explanation does not mention %S:\n%s" part text)
    parts

(* Drive a real, clean run: 3 nodes form a view, exchange FIFO traffic,
   then lose node 2 so a successor view exists (agreement compares the
   survivors' delivery sets across that view change). *)
let drive_clean_run () =
  let c = Cluster.vsync ~seed:11L ~n:3 () in
  let sim = Cluster.sim c in
  Cluster.run c ~until:1.0;
  for i = 0 to 8 do
    ignore
      (Sim.at sim
         (1.0 +. (0.05 *. float_of_int i))
         (fun () -> Cluster.multicast_from c ~node:(i mod 3) ()))
  done;
  Cluster.run_script c [ (2.0, Faults.Crash 2) ];
  Cluster.run c ~until:4.0;
  let o = Cluster.oracle c in
  check (Alcotest.list Alcotest.string) "the genuine run is clean" []
    (Oracle.check_all o);
  check Alcotest.bool "it delivered traffic" true
    (Oracle.total_deliveries o > 0);
  c

(* Rebuild an oracle from another oracle's introspected recording,
   optionally dropping one delivery — the only corruption that cannot be
   expressed by appending to the original. *)
let rebuild_recording ?drop o procs =
  let o' = Oracle.create () in
  let mids =
    List.concat_map
      (fun proc -> List.map snd (Oracle.deliveries_of o ~proc))
      procs
    |> List.sort_uniq compare
  in
  List.iter (fun mid -> Oracle.record_send o' mid) mids;
  List.iter
    (fun proc ->
      let time = ref 0.0 in
      List.iter
        (fun (view, prior) ->
          time := !time +. 0.01;
          Oracle.record_install o' ~proc ~view ~prior ~time:!time)
        (Oracle.installs_of o ~proc);
      List.iter
        (fun (vid, mid) ->
          let dropped =
            match drop with
            | Some (dp, dmid) -> Proc_id.equal dp proc && dmid = mid
            | None -> false
          in
          if not dropped then begin
            time := !time +. 0.01;
            Oracle.record_delivery o' ~proc ~vid mid ~time:!time
          end)
        (Oracle.deliveries_of o ~proc))
    procs;
  o'

let procs_of o = List.map fst (Oracle.install_counts o)

let test_mutation_dropped_delivery_breaks_agreement () =
  let c = drive_clean_run () in
  let o = Cluster.oracle c in
  let procs = procs_of o in
  (* Faithful rebuild stays clean: the harness introspection is lossless
     enough for the checkers. *)
  let faithful = rebuild_recording o procs in
  check (Alcotest.list Alcotest.string) "faithful rebuild is clean" []
    (Oracle.check_all faithful);
  (* Drop one delivery that the other survivor also made in the view both
     outlived: agreement (Property 2.1) must fire. *)
  let survivor = p 0 and witness = p 1 in
  let last_prior =
    match List.rev (Oracle.installs_of o ~proc:survivor) with
    | (_, prior) :: _ -> prior
    | [] -> Alcotest.fail "no installs recorded"
  in
  let shared_mid =
    let delivered_by proc =
      Oracle.deliveries_of o ~proc
      |> List.filter_map (fun (vid, mid) ->
             if View.Id.equal vid last_prior then Some mid else None)
    in
    match
      List.filter
        (fun mid -> List.mem mid (delivered_by witness))
        (delivered_by survivor)
    with
    | mid :: _ -> mid
    | [] -> Alcotest.fail "no shared delivery in the pre-crash view"
  in
  let corrupted = rebuild_recording ~drop:(survivor, shared_mid) o procs in
  let violations = Oracle.agreement_violations corrupted in
  check Alcotest.bool "agreement fires on the dropped delivery" true
    (violations <> []);
  (* The explanation names the property, the missing message and the view
     the survivors shared. *)
  assert_mentions (explain_text violations)
    [
      "violated: agreement (Property 2.1)";
      "message: " ^ Event.msg_to_string shared_mid;
      Event.vid_to_string last_prior;
    ]

let test_mutation_cross_view_duplicate_breaks_uniqueness () =
  let c = drive_clean_run () in
  let o = Cluster.oracle c in
  (* Re-deliver a genuinely delivered message in a different view. *)
  let proc = p 0 in
  let vid, mid =
    match Oracle.deliveries_of o ~proc with
    | d :: _ -> d
    | [] -> Alcotest.fail "no deliveries"
  in
  let other_vid = View.Id.make ~epoch:99 ~proposer:(p 1) in
  assert (not (View.Id.equal vid other_vid));
  Oracle.record_delivery o ~proc:(p 1) ~vid:other_vid mid ~time:9.9;
  let violations = Oracle.uniqueness_violations o in
  check Alcotest.bool "uniqueness fires on the cross-view duplicate" true
    (violations <> []);
  assert_mentions (explain_text violations)
    [
      "violated: uniqueness (Property 2.2)";
      "message: " ^ Event.msg_to_string mid;
      Event.vid_to_string vid;
      Event.vid_to_string other_vid;
    ]

let test_mutation_spurious_message_breaks_integrity () =
  let c = drive_clean_run () in
  let o = Cluster.oracle c in
  (* Deliver a message nobody ever multicast. *)
  let phantom = { Oracle.origin = p 9; mseq = 42 } in
  let vid = View.Id.make ~epoch:1 ~proposer:(p 0) in
  Oracle.record_delivery o ~proc:(p 0) ~vid phantom ~time:9.9;
  let violations = Oracle.integrity_violations o in
  check Alcotest.bool "integrity fires on the spurious message" true
    (violations <> []);
  assert_mentions (explain_text violations)
    [
      "violated: integrity (Property 2.3)";
      "message: " ^ Event.msg_to_string phantom;
      "processes: " ^ Event.proc_to_string (p 0);
      Event.vid_to_string vid;
    ]

let test_mutation_inverted_delivery_breaks_fifo () =
  let c = drive_clean_run () in
  let o = Cluster.oracle c in
  (* Append an inversion: a fresh sender's messages delivered out of
     multicast order at one process. *)
  let m0 = { Oracle.origin = p 7; mseq = 0 } in
  let m1 = { Oracle.origin = p 7; mseq = 1 } in
  Oracle.record_send o m0;
  Oracle.record_send o m1;
  let vid = View.Id.make ~epoch:1 ~proposer:(p 0) in
  Oracle.record_delivery o ~proc:(p 0) ~vid m1 ~time:9.8;
  Oracle.record_delivery o ~proc:(p 0) ~vid m0 ~time:9.9;
  let violations = Oracle.fifo_violations o in
  check Alcotest.bool "fifo fires on the inversion" true (violations <> []);
  assert_mentions (explain_text violations)
    [ "violated: per-sender fifo order"; "message: "; Event.vid_to_string vid ]

(* ---------- batching on/off equivalence ---------- *)

module Endpoint = Vs_vsync.Endpoint

(* The batched wire format is an encoding change, not a semantic one: the
   same seeded run — same traffic schedule, same crash — must produce the
   same oracle verdicts and the same per-process delivery sequence whether
   payloads ship one per wire message or grouped into Wire.Batch rounds.
   View identifiers may differ (batching shifts data-plane timing), so the
   comparison is over message identities, which the cluster assigns
   independently of the wire. *)
let equivalence_run ~config =
  let c = Cluster.vsync ~seed:4242L ~config ~n:4 () in
  let sim = Cluster.sim c in
  Cluster.run c ~until:1.0;
  for i = 0 to 29 do
    ignore
      (Sim.at sim
         (1.0 +. (0.02 *. float_of_int i))
         (fun () ->
           let node = i mod 4 in
           let order =
             if i mod 3 = 0 then Endpoint.Total else Endpoint.Fifo
           in
           Cluster.multicast_from c ~node ~order ()))
  done;
  Cluster.run_script c [ (2.0, Faults.Crash 3) ];
  Cluster.run c ~until:5.0;
  c

let test_batching_equivalence () =
  let base =
    {
      Endpoint.default_config with
      Endpoint.stability_interval = Some 0.05;
      batch_max = 32;
      pipeline_depth = 4;
    }
  in
  let c_off = equivalence_run ~config:base in
  let c_on = equivalence_run ~config:{ base with Endpoint.batching = true } in
  let o_off = Cluster.oracle c_off and o_on = Cluster.oracle c_on in
  check (Alcotest.list Alcotest.string) "identical oracle verdicts"
    (Oracle.check_all o_off) (Oracle.check_all o_on);
  check (Alcotest.list Alcotest.string) "and both clean" []
    (Oracle.check_all o_on);
  List.iter
    (fun node ->
      let proc = p node in
      let seq o =
        List.map
          (fun (_, m) -> Oracle.msg_id_to_string m)
          (Oracle.deliveries_of o ~proc)
      in
      check
        (Alcotest.list Alcotest.string)
        (Printf.sprintf "node %d: identical delivery sequence" node)
        (seq o_off) (seq o_on))
    [ 0; 1; 2; 3 ];
  check Alcotest.bool "unbatched arm sent no batches" true
    ((Cluster.stats_total c_off).Endpoint.batches_sent = 0);
  check Alcotest.bool "batched arm sent batches" true
    ((Cluster.stats_total c_on).Endpoint.batches_sent > 0)


(* ---------- stabilization oracle under injected corruption ---------- *)

(* One named corruption per kind, each targeting a distinct endpoint field
   (Endpoint.corruption_field).  Every kind gets the same treatment: a
   stabilizing run must pass the oracle (recovery-window noise quarantined,
   nothing residual), and a mutated never-reconverging run must trip it
   with a structured violation naming the corrupted field. *)
let corruption_kinds =
  [
    Faults.Seq_skew 3;
    Faults.Stability_smear (1, 4);
    Faults.View_skew 2;
    Faults.Deps_truncate (1, 2);
  ]

let kind_field kind = Endpoint.corruption_field kind

(* A run that genuinely stabilizes: a formed view, traffic across the
   corruption, then the post-corruption kick (crash + recover) so fresh
   views are installed after the last fault and the quarantine window can
   close. *)
let stabilizing_run kind =
  let c = Cluster.vsync ~seed:21L ~n:3 () in
  let sim = Cluster.sim c in
  Cluster.run c ~until:1.0;
  for i = 0 to 23 do
    ignore
      (Sim.at sim
         (1.0 +. (0.08 *. float_of_int i))
         (fun () -> Cluster.multicast_from c ~node:(i mod 3) ()))
  done;
  Cluster.run_script c
    [
      (2.0, Faults.Corrupt (0, kind));
      (2.3, Faults.Crash 1);
      (2.6, Faults.Recover 1);
    ];
  Cluster.run c ~until:7.0;
  c

let test_stabilization_passes_stabilizing_runs () =
  List.iter
    (fun kind ->
      let label = Faults.corruption_to_string kind in
      let c = stabilizing_run kind in
      let o = Cluster.oracle c in
      (match Oracle.corruptions o with
      | [ (_, field, time) ] ->
          check Alcotest.string
            (label ^ ": recorded corruption names the field")
            (kind_field kind) field;
          check Alcotest.bool (label ^ ": recorded at injection time") true
            (time >= 2.0 && time < 2.1)
      | l ->
          Alcotest.failf "%s: expected exactly one recorded corruption, got %d"
            label (List.length l));
      match Oracle.stabilization o (Oracle.all_violations o) with
      | None -> Alcotest.failf "%s: stabilization oracle did not arm" label
      | Some st ->
          List.iter
            (fun (v : Oracle.violation) ->
              Printf.printf "%s residual: %s\n" label v.Explain.detail)
            st.Oracle.st_residual;
          check Alcotest.int (label ^ ": no residual violations") 0
            (List.length st.Oracle.st_residual);
          check Alcotest.bool (label ^ ": the kick installed fresh views")
            true (st.Oracle.st_views >= 2);
          check Alcotest.bool (label ^ ": the quarantine window closed") true
            (st.Oracle.st_cut <> None))
    corruption_kinds

let test_stabilization_trips_on_never_reconverging_runs () =
  List.iter
    (fun kind ->
      let label = Faults.corruption_to_string kind in
      let c = stabilizing_run kind in
      let o = Cluster.oracle c in
      (* Mutate the recording into a never-reconverging run: a second
         corruption after every install the run ever made, then a phantom
         delivery (an integrity violation) inside the open window. *)
      Oracle.record_corruption o ~proc:(p 0) ~field:(kind_field kind)
        ~time:100.0;
      let phantom = { Oracle.origin = p 9; mseq = 77 } in
      Oracle.record_delivery o ~proc:(p 0)
        ~vid:(View.Id.make ~epoch:99 ~proposer:(p 1))
        phantom ~time:101.0;
      match Oracle.stabilization o (Oracle.all_violations o) with
      | None -> Alcotest.failf "%s: stabilization oracle did not arm" label
      | Some st ->
          check Alcotest.bool (label ^ ": window never closed") true
            (st.Oracle.st_cut = None);
          check Alcotest.bool (label ^ ": phantom delivery quarantined") true
            (st.Oracle.st_quarantined <> []);
          let v =
            match st.Oracle.st_residual with
            | v :: _ -> v
            | [] ->
                Alcotest.failf "%s: no residual violation synthesized" label
          in
          check Alcotest.bool (label ^ ": residual is a Stabilization verdict")
            true
            (v.Explain.property = Explain.Stabilization);
          assert_mentions
            (explain_text [ v ])
            [
              "violated: stabilization";
              "never reconverged";
              kind_field kind ^ "@" ^ Vs_net.Proc_id.to_string (p 0);
            ])
    corruption_kinds

let test_stabilization_relabels_persistent_violations () =
  (* A violation confined to views installed past the bound is a real
     failure: relabeled Stabilization, detail naming the corrupted field. *)
  let kind = Faults.Seq_skew 3 in
  let c = stabilizing_run kind in
  let o = Cluster.oracle c in
  let last_view =
    match List.rev (Oracle.installs_of o ~proc:(p 0)) with
    | (view, _) :: _ -> view
    | [] -> Alcotest.fail "no installs recorded"
  in
  let phantom = { Oracle.origin = p 9; mseq = 78 } in
  Oracle.record_delivery o ~proc:(p 0) ~vid:last_view.View.id phantom
    ~time:50.0;
  match Oracle.stabilization o ~bound:1 (Oracle.all_violations o) with
  | None -> Alcotest.fail "stabilization oracle did not arm"
  | Some st -> (
      match st.Oracle.st_residual with
      | [ v ] ->
          check Alcotest.bool "relabeled Stabilization" true
            (v.Explain.property = Explain.Stabilization);
          assert_mentions
            (explain_text [ v ])
            [
              "violated: stabilization";
              "persists after the stabilization bound";
              "integrity";
              kind_field kind ^ "@" ^ Vs_net.Proc_id.to_string (p 0);
            ]
      | l ->
          Alcotest.failf "expected exactly one residual violation, got %d"
            (List.length l))

(* ---------- transient campaigns end-to-end ---------- *)

let find_transient_spec ?(protocol = Driver.Vsync) () =
  let rec go seed =
    if seed > 400 then Alcotest.fail "no transient campaign draws a corruption?"
    else
      let spec =
        Campaign.generate ~protocol ~transient:true ~seed ~nodes:4 ~quick:true
          ()
      in
      if
        List.exists
          (fun (_, a) -> match a with Faults.Corrupt _ -> true | _ -> false)
          spec.Campaign.script
      then spec
      else go (seed + 1)
  in
  go 1

let test_transient_campaign_is_judged_by_stabilization () =
  let spec = find_transient_spec () in
  let outcome = Campaign.run spec in
  List.iter print_endline outcome.Campaign.violations;
  check Alcotest.int "transient campaign is oracle-clean" 0
    (List.length outcome.Campaign.violations);
  match outcome.Campaign.quarantine with
  | None -> Alcotest.fail "no quarantine summary on a transient run"
  | Some q ->
      check Alcotest.int "default bound" 2 q.Driver.q_bound;
      check Alcotest.bool "the run reconverged" true (q.Driver.q_cut <> None)

let test_transient_axis_leaves_plain_campaigns_unchanged () =
  (* The transient axis must not perturb the RNG stream of existing
     campaigns: transient:false produces byte-identical specs. *)
  List.iter
    (fun seed ->
      let plain = Campaign.generate ~seed ~nodes:5 ~quick:false () in
      let explicit =
        Campaign.generate ~transient:false ~seed ~nodes:5 ~quick:false ()
      in
      check Alcotest.bool
        (Printf.sprintf "seed %d: specs identical" seed)
        true
        (Campaign.equal_spec plain explicit
        && Repro.to_string plain = Repro.to_string explicit))
    [ 1; 7; 42; 202 ]

(* Generated transient campaigns, pinned: the digest of the Repro text of
   seeds 1-50 per protocol.  Any change to a draw of Campaign.generate or
   Faults.random_script, its order included, moves it. *)
let test_transient_scripts_pinned () =
  List.iter
    (fun (protocol, expected) ->
      let text =
        String.concat ""
          (List.init 50 (fun i ->
               Repro.to_string
                 (Campaign.generate ~protocol ~transient:true ~seed:(i + 1)
                    ~nodes:5 ~quick:true ())))
      in
      check Alcotest.string
        (Driver.protocol_to_string protocol ^ " seeds 1-50")
        expected
        (Digest.to_hex (Digest.string text)))
    [
      (Driver.Vsync, "ed6683e490e7d94035d610bcfcb8a2ea");
      (Driver.Evs, "7aea3b85428a142d19402741f64ddc3a");
    ]

let test_transient_explorer_smoke () =
  let report =
    Explorer.explore ~transient:true ~seeds:10 ~nodes:4 ~quick:true ()
  in
  List.iter
    (fun (f : Explorer.failure) ->
      Printf.printf "transient seed %d (%s):\n" f.Explorer.f_seed
        (Campaign.describe f.Explorer.f_spec);
      List.iter print_endline f.Explorer.f_outcome.Campaign.violations)
    report.Explorer.failures;
  check Alcotest.int "campaigns = seeds x protocols" 20
    report.Explorer.campaigns;
  check Alcotest.int "no violations over the transient smoke set" 0
    (List.length report.Explorer.failures)

(* The recording level widens the event stream and nothing else: the whole
   outcome record, verdicts and quarantine summary included, is the same at
   Off, Protocol and Full for a VS, an EVS and a transient campaign. *)
let test_outcome_independent_of_recording_level () =
  let specs =
    [
      ("vsync", Campaign.generate ~protocol:Driver.Vsync ~seed:3 ~nodes:4
                  ~quick:true ());
      ("evs", Campaign.generate ~protocol:Driver.Evs ~seed:3 ~nodes:4
                ~quick:true ());
      ("transient", find_transient_spec ());
    ]
  in
  List.iter
    (fun (name, spec) ->
      let at level = Campaign.run ~obs:(Recorder.create ~level ()) spec in
      let off = at Recorder.Off in
      check Alcotest.bool (name ^ ": the run did something") true
        (off.Campaign.events > 0 && off.Campaign.installs > 0);
      check Alcotest.bool (name ^ ": quarantine summary iff transient")
        spec.Campaign.transient (off.Campaign.quarantine <> None);
      List.iter
        (fun level ->
          check Alcotest.bool
            (Printf.sprintf "%s: %s outcome equals Off's" name
               (Recorder.level_to_string level))
            true
            (at level = off))
        [ Recorder.Protocol; Recorder.Full ])
    specs

(* ---------- transient x batching ---------- *)

let transient_equivalence_run ~config =
  let c = Cluster.vsync ~seed:4242L ~config ~n:4 () in
  let sim = Cluster.sim c in
  Cluster.run c ~until:1.0;
  for i = 0 to 29 do
    ignore
      (Sim.at sim
         (1.0 +. (0.02 *. float_of_int i))
         (fun () ->
           let node = i mod 4 in
           let order =
             if i mod 3 = 0 then Endpoint.Total else Endpoint.Fifo
           in
           Cluster.multicast_from c ~node ~order ()))
  done;
  Cluster.run_script c
    [
      (1.3, Faults.Corrupt (0, Faults.Seq_skew 2));
      (2.0, Faults.Crash 3);
      (2.4, Faults.Recover 3);
    ];
  Cluster.run c ~until:5.0;
  c

let test_transient_batching_equivalence () =
  (* Same seed, same corruption, batching on vs off: the stabilization
     oracle must reach the same verdict — both reconverge, neither leaves
     residual violations. *)
  let base =
    {
      Endpoint.default_config with
      Endpoint.stability_interval = Some 0.05;
      batch_max = 32;
      pipeline_depth = 4;
    }
  in
  let verdict config =
    let c = transient_equivalence_run ~config in
    let o = Cluster.oracle c in
    match Oracle.stabilization o (Oracle.all_violations o) with
    | None -> Alcotest.fail "stabilization oracle did not arm"
    | Some st ->
        ( List.map (fun (v : Oracle.violation) -> v.Explain.detail)
            st.Oracle.st_residual,
          st.Oracle.st_cut <> None )
  in
  let residual_off, closed_off = verdict base in
  let residual_on, closed_on =
    verdict { base with Endpoint.batching = true }
  in
  check (Alcotest.list Alcotest.string) "identical residual verdicts"
    residual_off residual_on;
  check (Alcotest.list Alcotest.string) "and both clean" [] residual_on;
  check Alcotest.bool "both windows closed" true (closed_off && closed_on)

(* ---------- corpus replay ---------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* One Full-level run of [spec] and its failure-attribution text. *)
let explain spec =
  let obs = Recorder.create ~level:Recorder.Full () in
  let outcome = Campaign.run ~obs spec in
  ( outcome,
    Explain_run.to_text
      (Explain_run.build ~spec ~outcome ~entries:(Recorder.entries obs)) )

let test_corpus_replays_clean () =
  let entries = Repro.load_dir "corpus" in
  check Alcotest.bool "corpus is not empty" true (entries <> []);
  check Alcotest.bool "corpus has a transient artifact" true
    (List.exists
       (fun (_, parsed) ->
         match parsed with
         | Ok spec -> spec.Campaign.transient
         | Error _ -> false)
       entries);
  List.iter
    (fun (path, parsed) ->
      match parsed with
      | Error msg -> Alcotest.failf "%s does not parse: %s" path msg
      | Ok spec ->
          (* The printed form must parse back to the same spec (the corpus
             survives format evolution), and machine-written artifacts —
             the transient one is — must be byte-stable under a
             parse/print round-trip. *)
          (match Repro.of_string (Repro.to_string spec) with
          | Ok spec' ->
              check Alcotest.bool (path ^ ": round-trips") true
                (Campaign.equal_spec spec spec')
          | Error msg -> Alcotest.failf "%s: reprint fails: %s" path msg);
          if spec.Campaign.transient then
            check Alcotest.string (path ^ ": byte-identical reprint")
              (read_file path) (Repro.to_string spec);
          let outcome, text = explain spec in
          if outcome.Campaign.violations <> [] then begin
            Printf.printf "%s (%s):\n" path (Campaign.describe spec);
            List.iter print_endline outcome.Campaign.violations;
            Alcotest.failf "%s regressed: %d violation(s)" path
              (List.length outcome.Campaign.violations)
          end;
          (* The explanation is deterministic and pinned by the committed
             <name>.explain.txt; regenerate one after an intentional change
             with: vscli explain --replay <name>.sexp > <name>.explain.txt *)
          check Alcotest.string (path ^ ": same explanation twice") text
            (snd (explain spec));
          let artifact = Filename.remove_extension path ^ ".explain.txt" in
          if not (Sys.file_exists artifact) then
            Alcotest.failf "%s has no committed %s" path artifact;
          check Alcotest.string (path ^ ": matches " ^ artifact)
            (read_file artifact) text)
    entries

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "vs_check"
    [
      ( "explorer",
        [
          Alcotest.test_case "25-seed smoke sweep is clean" `Quick
            test_explorer_smoke;
        ] );
      ( "replay",
        [
          Alcotest.test_case "same spec, same outcome" `Quick
            test_replay_deterministic;
          Alcotest.test_case "through the artifact form" `Quick
            test_replay_from_artifact_deterministic;
          Alcotest.test_case "same outcome at every recording level" `Quick
            test_outcome_independent_of_recording_level;
        ] );
      ( "repro",
        [
          qt roundtrip_property;
          Alcotest.test_case "parse errors are reported" `Quick
            test_repro_errors;
          qt repro_edit_property;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "structural predicate minimizes" `Quick
            test_shrink_structural;
          Alcotest.test_case "run-derived predicate minimizes" `Quick
            test_shrink_run_derived;
        ] );
      ( "oracle-mutations",
        [
          Alcotest.test_case "dropped delivery -> agreement" `Quick
            test_mutation_dropped_delivery_breaks_agreement;
          Alcotest.test_case "cross-view duplicate -> uniqueness" `Quick
            test_mutation_cross_view_duplicate_breaks_uniqueness;
          Alcotest.test_case "spurious message -> integrity" `Quick
            test_mutation_spurious_message_breaks_integrity;
          Alcotest.test_case "inverted delivery -> fifo" `Quick
            test_mutation_inverted_delivery_breaks_fifo;
        ] );
      ( "batching",
        [
          Alcotest.test_case "on/off wire equivalence" `Quick
            test_batching_equivalence;
          Alcotest.test_case "on/off equivalence under corruption" `Quick
            test_transient_batching_equivalence;
        ] );
      ( "stabilization",
        [
          Alcotest.test_case "stabilizing runs pass, per corruption kind"
            `Quick test_stabilization_passes_stabilizing_runs;
          Alcotest.test_case "never-reconverging runs trip, per kind" `Quick
            test_stabilization_trips_on_never_reconverging_runs;
          Alcotest.test_case "persistent violations are relabeled" `Quick
            test_stabilization_relabels_persistent_violations;
          Alcotest.test_case "transient campaign judged by the oracle" `Quick
            test_transient_campaign_is_judged_by_stabilization;
          Alcotest.test_case "plain campaigns byte-identical" `Quick
            test_transient_axis_leaves_plain_campaigns_unchanged;
          Alcotest.test_case "transient scripts pinned" `Quick
            test_transient_scripts_pinned;
          Alcotest.test_case "10-seed transient smoke sweep is clean" `Quick
            test_transient_explorer_smoke;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "every artifact replays clean" `Quick
            test_corpus_replays_clean;
        ] );
    ]
