(* Golden-file generator: prints one committed artifact on stdout.

     golden.exe trace        test/trace_schema_sample.jsonl
     golden.exe openmetrics  test/openmetrics_sample.txt
     golden.exe sarif        test/sarif_sample.sarif
     golden.exe folded       test/critpath_sample.folded
     golden.exe diff         test/critpath_sample.diff.txt
     golden.exe campaigns    test/campaigns_sample.txt

   test/dune diffs each output against its sample on `dune runtest`, so
   any drift in field names, key order, float repr, escaping, sort order or
   table layout fails the build; after an intentional format change,
   `dune promote` accepts the new output.  The structural checks of each
   format run as alcotest cases over the committed samples. *)

module Event = Vs_obs.Event
module Recorder = Vs_obs.Recorder
module Export = Vs_obs.Export
module Metrics = Vs_obs.Metrics
module Openmetrics = Vs_obs.Openmetrics
module Critpath = Vs_obs.Critpath
module Flame = Vs_obs.Flame
module Rundiff = Vs_obs.Rundiff
module Lint = Vs_lint.Lint
module Rules = Vs_lint.Rules
module Sarif = Vs_lint.Sarif
module Campaign = Vs_check.Campaign

(* ---------- trace: one entry per Event.t variant ---------- *)

let p node inc = { Event.node; inc }

let v epoch node = { Event.epoch; proposer = p node 0 }

let trace_entries =
  let e time event = { Recorder.time; event } in
  [
    (* Data-path events appear both without a correlation identity (control
       traffic) and with one (application payloads), so the optional trailing
       "msg" key is exercised in both states. *)
    e 0.
      (Event.Send
         { src = p 0 0; dst = p 1 0; kind = "heartbeat"; bytes = 16; msg = None });
    e 0.0012
      (Event.Recv
         {
           src = p 0 0; dst = p 1 0; kind = "data";
           msg = Some { Event.origin = p 0 0; mseq = 3 };
         });
    e 0.002
      (Event.Drop
         {
           src = p 1 0; dst = p 2 (-1); kind = "data"; reason = "loss";
           msg = Some { Event.origin = p 1 0; mseq = 0 };
         });
    e 0.0031
      (Event.Dup { src = p 1 0; dst = p 0 0; kind = "stable"; msg = None });
    e 0.0125
      (Event.Retransmit { proc = p 0 0; origin = p 1 0; count = 3; peer = true });
    e 0.02 (Event.Backoff { proc = p 0 0; dst = p 2 0; attempt = 2; delay = 0.05 });
    e 0.03 (Event.Suspect { proc = p 0 0; peer = p 2 0 });
    e 0.04 (Event.Unsuspect { proc = p 0 0; peer = p 2 0 });
    e 0.05
      (Event.Propose
         { proc = p 0 0; vid = v 2 0; members = [ p 0 0; p 1 0; p 2 1 ] });
    e 0.06 (Event.Flush { proc = p 1 0; vid = v 2 0; seen = 4 });
    e 0.07
      (Event.Install
         { proc = p 1 0; vid = v 2 0; members = [ p 0 0; p 1 0; p 2 1 ]; sync = 2 });
    e 0.08
      (Event.Eview
         { proc = p 1 0; vid = v 2 0; eseq = 1; cause = "view"; subviews = 2;
           svsets = 1 });
    e 0.09
      (Event.Mode_change
         { proc = p 1 0; from_mode = "NORMAL"; into_mode = "SETTLING";
           cause = "settling-entered" });
    e 0.1
      (Event.Settle
         { proc = p 1 0; vid = v 2 0; transfer = true; creation = "none";
           merging = false; clusters = 2 });
    e 0.11 (Event.Task_start { proc = p 1 0; task = "transfer"; vid = v 2 0 });
    e 0.127 (Event.Task_done { proc = p 1 0; task = "transfer"; vid = v 2 0 });
    e 0.2 (Event.Crash { proc = p 2 1 });
    e 0.3 (Event.Partition { components = [ [ 0; 1 ]; [ 2 ] ] });
    e 0.4 Event.Heal;
    e 0.45
      (Event.Corrupt
         { proc = p 1 0; field = "send_seq"; detail = "3 -> 7" });
    (* Both quarantine shapes: reconverged (a real cut time) and the
       never-reconverged sentinel (cut = -1). *)
    e 0.46
      (Event.Quarantine
         { bound = 2; opened = 0.45; cut = 0.9; views = 3; quarantined = 1 });
    e 0.47
      (Event.Quarantine
         { bound = 2; opened = 0.45; cut = -1.; views = 1; quarantined = 2 });
    e 0.5 (Event.Note { component = "app"; message = "custom \"quoted\" marker" });
  ]

(* ---------- openmetrics: every family type the exposition emits ---------- *)

let metrics_registry () =
  let m = Metrics.create () in
  Metrics.incr ~by:42 m "net.sends";
  Metrics.incr m "gms.installs";
  Metrics.incr ~by:7 m "net.sends.mode.NORMAL";
  (* a name that needs sanitizing *)
  Metrics.incr m "app kv.puts%ok";
  Metrics.set_gauge m "run.last-event-time" 12.375;
  Metrics.set_gauge m "fd.suspicion-level" 0.1;
  Metrics.set_gauge m "run.skew" infinity;
  (* histogram spanning the special buckets: zero, underflow, two
     in-range samples sharing a bucket, distinct buckets, overflow *)
  List.iter
    (Metrics.observe m "view.install-latency")
    [ 0.; 1e-9; 0.25; 0.2501; 0.5; 2e7 ];
  List.iter (Metrics.observe m "vsync.flush-stall") [ 0.125 ];
  m

(* ---------- sarif: a fixed vslint report ---------- *)

let rule id =
  match Rules.find id with
  | Some r -> r
  | None -> failwith ("golden: unknown rule " ^ id)

(* A fixed report exercising both severities, a whole-program chain message
   (with its UTF-8 arrow), and characters the emitter must escape. *)
let sarif_findings =
  [
    {
      Lint.rule = rule "D1";
      file = "lib/example/clock.ml";
      line = 3;
      col = 17;
      message = "Unix.gettimeofday reads the wall clock; use Sim.now";
    };
    {
      Lint.rule = rule "C1";
      file = "lib/vsync/example.ml";
      line = 12;
      col = 4;
      message =
        "decide reaches Ambient_time outside the Sim capability: \
         lib/vsync/example.ml:decide \xe2\x86\x92 lib/util/clock.ml:stamp \
         \xe2\x86\x92 Unix.gettimeofday (lib/util/clock.ml:3)";
    };
    {
      Lint.rule = rule "D2";
      file = "lib/example/tabs.ml";
      line = 7;
      col = 2;
      message = "Hashtbl.fold enumerates a hash table \"in\" unspecified order";
    };
  ]

(* ---------- critpath: two fixed seeded campaigns at Full level ---------- *)

let record seed =
  let recorder = Recorder.create ~level:Recorder.Full () in
  let spec = Campaign.generate ~seed ~nodes:4 ~quick:true () in
  let (_ : Campaign.outcome) = Campaign.run ~obs:recorder spec in
  Recorder.entries recorder

(* ---------- campaigns: seeded outcomes of both protocols ---------- *)

(* One line per quick campaign, seeds 1-25 x {vsync, evs} x {plain,
   transient}: the spec and every head-line counter of its outcome, so any
   change to a seeded run (RNG draw order, incarnation numbers, message
   ids, e-view records, verdicts) shows up as a diff. *)
let campaign_line spec =
  let o = Campaign.run spec in
  let quarantine =
    match o.Campaign.quarantine with
    | None -> "none"
    | Some q ->
        Printf.sprintf "bound=%d,views=%d,cut=%s,quarantined=%d"
          q.Campaign.Driver.q_bound q.Campaign.Driver.q_views
          (match q.Campaign.Driver.q_cut with
          | Some c -> Printf.sprintf "%.6f" c
          | None -> "never")
          q.Campaign.Driver.q_quarantined
  in
  Printf.sprintf
    "%s | deliveries=%d installs=%d views=%d eview-changes=%d events=%d \
     stable=%b quarantine=%s violations=%d\n"
    (Campaign.describe spec) o.Campaign.deliveries o.Campaign.installs
    o.Campaign.distinct_views o.Campaign.eview_changes o.Campaign.events
    o.Campaign.stable quarantine
    (List.length o.Campaign.violations)

let campaigns () =
  List.init 25 (fun i -> i + 1)
  |> List.concat_map (fun seed ->
         List.concat_map
           (fun protocol ->
             List.map
               (fun transient ->
                 campaign_line
                   (Campaign.generate ~protocol ~transient ~seed ~nodes:5
                      ~quick:true ()))
               [ false; true ])
           [ Campaign.Driver.Vsync; Campaign.Driver.Evs ])
  |> String.concat ""

let () =
  print_string
    (match Sys.argv with
    | [| _; "trace" |] -> Export.jsonl_of_entries trace_entries
    | [| _; "openmetrics" |] -> Openmetrics.of_metrics (metrics_registry ())
    | [| _; "sarif" |] -> Sarif.emit ~findings:sarif_findings ^ "\n"
    | [| _; "folded" |] -> Flame.folded (Critpath.of_entries (record 3))
    | [| _; "diff" |] ->
        Rundiff.to_text (Rundiff.diff ~a:(record 3) ~b:(record 4))
    | [| _; "campaigns" |] -> campaigns ()
    | _ ->
        prerr_endline
          "usage: golden (trace|openmetrics|sarif|folded|diff|campaigns)";
        exit 2)
