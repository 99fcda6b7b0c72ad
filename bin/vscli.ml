(* vscli — command-line driver for the view-synchrony simulator.

   Subcommands:
     check        sweep seeds through the schedule explorer; shrink failures
     explain      run/replay a campaign and print the failure attribution
     query        run/replay a campaign and filter the recorded event stream
     trace        run a campaign and dump the annotated event trace
     top          per-window vsmon telemetry + flush-stall attribution
     metrics      expose the end-of-run registry (OpenMetrics or JSON)
     path         causal critical-path profile (vspath); --flame for stacks
     diff-runs    structural diff of two runs; first causal divergence *)

module Recorder = Vs_obs.Recorder
module Event = Vs_obs.Event
module Export = Vs_obs.Export
module Metrics = Vs_obs.Metrics
module Lineage = Vs_obs.Lineage
module Query = Vs_obs.Query
module Json = Vs_obs.Json
module Campaign = Vs_check.Campaign
module Explorer = Vs_check.Explorer
module Shrink = Vs_check.Shrink
module Repro = Vs_check.Repro
module Explain_run = Vs_check.Explain_run
open Cmdliner

(* Print a newline-terminated block with every line indented. *)
let print_indented ~indent text =
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if line <> "" then Printf.printf "%s%s\n" indent line)

(* ---------- shared argument pieces ---------- *)

(* [base] restricted to the values [ok] accepts: anything else is a usage
   error (exit 124) at parse time, before a run can fail on it. *)
let checked base ~what ok =
  let parse s =
    match Arg.conv_parser base s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "%S is not %s" s what))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer base)

let positive_int = checked Arg.int ~what:"a positive integer" (fun n -> n > 0)

let non_negative_int =
  checked Arg.int ~what:"a non-negative integer" (fun n -> n >= 0)

let positive_float =
  checked Arg.float ~what:"a positive finite number" (fun x ->
      x > 0. && Float.is_finite x)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed.")

let nodes_arg =
  Arg.(
    value & opt positive_int 5
    & info [ "nodes" ] ~docv:"N" ~doc:"Number of nodes.")

let typed_conv name of_string to_string =
  let parse s =
    match of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "invalid %s %S" name s))
  in
  Arg.conv (parse, fun ppf v -> Format.pp_print_string ppf (to_string v))

let proc_conv = typed_conv "process" Event.proc_of_string Event.proc_to_string

let vid_conv = typed_conv "view id" Event.vid_of_string Event.vid_to_string

let msg_conv = typed_conv "message id" Event.msg_of_string Event.msg_to_string

(* replay FILE / generated seed campaign: shared by explain, query, trace. *)
let spec_of ~seed ~nodes ~evs ~replay =
  match replay with
  | Some file -> (
      match Repro.load file with
      | Error msg ->
          Printf.eprintf "cannot load %s: %s\n" file msg;
          exit 2
      | Ok spec -> spec)
  | None ->
      let protocol =
        if evs then Vs_harness.Driver.Evs else Vs_harness.Driver.Vsync
      in
      Campaign.generate ~protocol ~seed ~nodes ~quick:false ()

(* Full recording: lineage, causal slices, the exporters and the metrics
   all want the per-message traffic (net.sends and friends are Full-only
   events).  The level only widens what gets recorded — it draws nothing
   from the RNG, so seeded runs stay aligned across subcommands. *)
let record spec =
  let obs = Recorder.create ~level:Recorder.Full () in
  let outcome = Campaign.run ~obs spec in
  (outcome, Recorder.entries obs)

(* The classic annotated text form, at most [limit] entries. *)
let print_entries ~limit entries =
  List.iteri
    (fun i (e : Recorder.entry) ->
      if i < limit then
        Printf.printf "[%10.4f] %-8s %s\n" e.Recorder.time
          (Event.component e.Recorder.event)
          (Event.render e.Recorder.event))
    entries;
  let n = List.length entries in
  if n > limit then Printf.printf "... (%d more entries)\n" (n - limit)

let replay_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:
          "Use a corpus repro artifact instead of a generated seed campaign.")

let evs_arg =
  Arg.(
    value & flag
    & info [ "evs" ]
        ~doc:"Generate an EVS campaign from the seed (default plain VS).")

(* ---------- check ---------- *)

let check_cmd =
  let seeds =
    Arg.(
      value & opt non_negative_int 100
      & info [ "seeds" ] ~docv:"N" ~doc:"Number of seeds to sweep.")
  in
  let start_seed =
    Arg.(
      value & opt int 1
      & info [ "start-seed" ] ~docv:"S" ~doc:"First seed of the sweep.")
  in
  let check_nodes =
    Arg.(
      value & opt positive_int 5
      & info [ "nodes" ] ~docv:"K" ~doc:"Nodes per campaign.")
  in
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Shorter churn windows (CI-sized campaigns).")
  in
  let no_shrink =
    Arg.(
      value & flag
      & info [ "no-shrink" ] ~doc:"Report failures without minimizing them.")
  in
  let corpus =
    Arg.(
      value
      & opt string "test/corpus"
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Directory where shrunk repro artifacts are written.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Per-campaign progress.")
  in
  let transient =
    Arg.(
      value & flag
      & info [ "transient" ]
          ~doc:
            "Add the transient-corruption axis: campaigns also inject typed \
             state corruptions and runs are judged by the stabilization \
             oracle (bounded recovery after the last corruption).")
  in
  let run seeds start_seed nodes quick no_shrink corpus verbose transient =
    let progress =
      if verbose then
        Some
          (fun ~seed spec (outcome : Campaign.outcome) ->
            Printf.printf "seed %d %s: %s\n%!" seed
              (Campaign.describe spec)
              (if outcome.Campaign.violations = [] then "ok"
               else
                 Printf.sprintf "%d violation(s)"
                   (List.length outcome.Campaign.violations)))
      else None
    in
    let report =
      Explorer.explore ~start_seed ~transient ~shrink:(not no_shrink) ?progress
        ~seeds ~nodes ~quick ()
    in
    Printf.printf
      "explored %d seeds (%d campaigns, both protocols): %d events, %d \
       deliveries, %d installs\n"
      report.Explorer.seeds report.Explorer.campaigns
      report.Explorer.total_events report.Explorer.total_deliveries
      report.Explorer.total_installs;
    if report.Explorer.failures = [] then print_endline "no violations found"
    else begin
      List.iter
        (fun (f : Explorer.failure) ->
          Printf.printf "\nFAILURE at seed %d:\n  original: %s\n" f.Explorer.f_seed
            (Campaign.describe f.Explorer.f_spec);
          List.iter
            (fun e -> print_endline ("    " ^ e))
            f.Explorer.f_outcome.Campaign.violations;
          if not no_shrink then begin
            Printf.printf "  shrunk (%d/%d candidates accepted): %s\n"
              f.Explorer.f_shrink_stats.Shrink.accepted
              f.Explorer.f_shrink_stats.Shrink.attempts
              (Campaign.describe f.Explorer.f_shrunk);
            let path = Repro.save ~dir:corpus f.Explorer.f_shrunk in
            Printf.printf "  repro written to %s\n" path;
            (* Replay the shrunk spec with full recording so the failure is
               self-explaining, not just reproducible, and attach the
               explanation next to the saved artifact. *)
            let outcome, entries = record f.Explorer.f_shrunk in
            let explain_report =
              Explain_run.build ~spec:f.Explorer.f_shrunk ~outcome ~entries
            in
            let text = Explain_run.to_text explain_report in
            print_indented ~indent:"  " text;
            let expl_path = Filename.remove_extension path ^ ".explain.txt" in
            let oc = open_out expl_path in
            output_string oc text;
            close_out oc;
            Printf.printf "  explanation written to %s\n" expl_path
          end)
        report.Explorer.failures;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Sweep seeds through the fault-schedule explorer (random churn x \
          loss/dup/jitter x traffic, over both protocols) and shrink any \
          failure to a minimal repro artifact.  Replay one artifact with \
          $(b,explain --replay).")
    Term.(
      const run $ seeds $ start_seed $ check_nodes $ quick $ no_shrink $ corpus
      $ verbose $ transient)

(* ---------- explain ---------- *)

let explain_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the report as one canonical JSON object.")
  in
  let graph =
    Arg.(
      value
      & opt (some (enum [ ("mermaid", `Mermaid); ("dot", `Dot) ])) None
      & info [ "graph" ] ~docv:"FORMAT"
          ~doc:
            "Also print the run's view graph as $(b,mermaid) or $(b,dot) \
             (Graphviz) source.")
  in
  let run seed nodes evs replay json graph =
    let spec = spec_of ~seed ~nodes ~evs ~replay in
    let outcome, entries = record spec in
    let report = Explain_run.build ~spec ~outcome ~entries in
    if json then print_endline (Json.to_string (Explain_run.to_json report))
    else print_string (Explain_run.to_text report);
    (match graph with
    | Some `Mermaid -> print_string (Lineage.to_mermaid (Explain_run.graph report))
    | Some `Dot -> print_string (Lineage.to_dot (Explain_run.graph report))
    | None -> ());
    if not (Explain_run.clean report) then exit 1
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Run a seed campaign or replay a corpus repro with full recording \
          and print the failure attribution: every oracle verdict with the \
          offending message's lineage, the views involved and the minimal \
          causal event slice — or the conservation/view-graph summary of a \
          clean run.")
    Term.(
      const run $ seed_arg $ nodes_arg $ evs_arg $ replay_arg $ json $ graph)

(* ---------- query ---------- *)

let query_cmd =
  let procs =
    Arg.(
      value & opt_all proc_conv []
      & info [ "proc" ] ~docv:"PROC"
          ~doc:
            "Keep events mentioning this process, e.g. $(b,p0) or $(b,p2.1) \
             (repeatable: any match).")
  in
  let nodes_f =
    Arg.(
      value & opt_all int []
      & info [ "node" ] ~docv:"N"
          ~doc:"Keep events mentioning any process on this node (repeatable).")
  in
  let vids =
    Arg.(
      value & opt_all vid_conv []
      & info [ "vid" ] ~docv:"VID"
          ~doc:"Keep events mentioning this view id, e.g. $(b,v3\\@p0) \
                (repeatable).")
  in
  let msgs =
    Arg.(
      value & opt_all msg_conv []
      & info [ "msg" ] ~docv:"MSG"
          ~doc:
            "Keep data-path events of this message, e.g. $(b,p0#2) \
             (repeatable).")
  in
  let types =
    Arg.(
      value & opt_all string []
      & info [ "type" ] ~docv:"EV"
          ~doc:
            "Keep events of this type (send, recv, drop, install, ...; \
             repeatable).")
  in
  let comps =
    Arg.(
      value & opt_all string []
      & info [ "component" ] ~docv:"C"
          ~doc:"Keep events of this component (net, gms, vsync, ...; \
                repeatable).")
  in
  let t0 =
    Arg.(
      value
      & opt (some float) None
      & info [ "from" ] ~docv:"T" ~doc:"Keep events at or after this time.")
  in
  let t1 =
    Arg.(
      value
      & opt (some float) None
      & info [ "until" ] ~docv:"T" ~doc:"Keep events at or before this time.")
  in
  let count_only =
    Arg.(
      value & flag
      & info [ "count" ] ~doc:"Print only the number of matching events.")
  in
  let limit =
    Arg.(
      value & opt non_negative_int 500
      & info [ "limit" ] ~docv:"N" ~doc:"Maximum entries printed.")
  in
  let run seed nodes evs replay procs nodes_f vids msgs types comps t0 t1
      count_only limit =
    let _, entries = record (spec_of ~seed ~nodes ~evs ~replay) in
    let disj of_q = function [] -> [] | xs -> [ Query.any (List.map of_q xs) ] in
    let conjuncts =
      List.concat
        [
          disj Query.mentions_proc procs;
          disj Query.on_node nodes_f;
          disj Query.mentions_vid vids;
          disj Query.about_msg msgs;
          disj Query.of_type types;
          disj Query.of_component comps;
          (match (t0, t1) with
          | None, None -> []
          | _ ->
              [
                Query.between
                  ~t0:(Option.value t0 ~default:neg_infinity)
                  ~t1:(Option.value t1 ~default:infinity);
              ]);
        ]
    in
    let q = List.fold_left Query.( &&& ) Query.all conjuncts in
    let hits = Query.run q entries in
    if count_only then Printf.printf "%d\n" (List.length hits)
    else print_entries ~limit hits
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Run a seed campaign or replay a corpus repro with full recording \
          and filter the typed event stream by process, node, view id, \
          message id, event type, component and time window (criteria are \
          ANDed; repeats of one criterion are ORed).")
    Term.(
      const run $ seed_arg $ nodes_arg $ evs_arg $ replay_arg $ procs $ nodes_f
      $ vids $ msgs $ types $ comps $ t0 $ t1 $ count_only $ limit)

(* ---------- trace ---------- *)

let trace_cmd =
  let components =
    Arg.(
      value
      & opt (list string) []
      & info [ "components" ] ~docv:"LIST"
          ~doc:
            "Restrict text output to these components (vsync, evs, mode, fd, \
             gms, app, net, faults); empty = all.")
  in
  let limit =
    Arg.(
      value & opt non_negative_int 200
      & info [ "limit" ] ~docv:"N" ~doc:"Maximum text entries printed.")
  in
  let format =
    Arg.(
      value
      & opt
          (enum
             [
               ("text", `Text); ("jsonl", `Jsonl); ("chrome", `Chrome);
               ("summary", `Summary);
             ])
          `Text
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Output format: $(b,text) (classic annotated trace), $(b,jsonl) \
             (one JSON event per line), $(b,chrome) (trace_event JSON for \
             Perfetto / chrome://tracing), $(b,summary) (derived metrics \
             tables).")
  in
  let run seed nodes format replay components limit evs =
    let spec = spec_of ~seed ~nodes ~evs ~replay in
    let outcome, entries = record spec in
    match format with
    | `Jsonl -> print_string (Export.jsonl_of_entries entries)
    | `Chrome -> print_endline (Export.chrome_of_entries entries)
    | `Summary ->
        Printf.printf "%s\n" (Campaign.describe spec);
        Printf.printf
          "deliveries=%d installs=%d distinct-views=%d events=%d stable=%b\n\n"
          outcome.Campaign.deliveries outcome.Campaign.installs
          outcome.Campaign.distinct_views outcome.Campaign.events
          outcome.Campaign.stable;
        print_string (Metrics.to_text (Metrics.of_entries entries))
    | `Text ->
        let wanted (e : Recorder.entry) =
          match components with
          | [] -> true
          | cs -> List.mem (Event.component e.Recorder.event) cs
        in
        print_entries ~limit (List.filter wanted entries)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Replay a seed campaign or corpus repro with full event recording \
          and export the typed event stream (text, JSONL, Chrome trace_event \
          for Perfetto, or a metrics summary).")
    Term.(
      const run $ seed_arg $ nodes_arg $ format $ replay_arg $ components
      $ limit $ evs_arg)

(* ---------- top / metrics (vsmon surfacing) ---------- *)

module Series = Vs_obs.Series
module Stall = Vs_obs.Stall
module Openmetrics = Vs_obs.Openmetrics

let interval_arg =
  Arg.(
    value
    & opt positive_float Series.default_interval
    & info [ "interval" ] ~docv:"SECONDS"
        ~doc:"Scrape window length in simulated seconds.")

(* Run a seed campaign or corpus repro with a vsmon series tapping a Full
   recorder, and close the final window at the last recorded timestamp. *)
let run_with_series ~spec ~interval =
  let obs = Recorder.create ~level:Recorder.Full () in
  let series = Series.create ~interval () in
  let (_ : Recorder.sink_handle) =
    Recorder.add_sink obs (Series.observe series)
  in
  let outcome = Campaign.run ~obs spec in
  let last_time =
    match List.rev (Recorder.tail ~limit:1 obs) with
    | e :: _ -> e.Recorder.time
    | [] -> 0.
  in
  Series.finish series ~now:last_time;
  (series, obs, outcome)

let top_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Machine-readable JSON instead of tables.")
  in
  let run seed nodes evs replay interval json =
    let spec = spec_of ~seed ~nodes ~evs ~replay in
    let series, obs, _outcome = run_with_series ~spec ~interval in
    let attrs = Stall.of_entries (Recorder.entries obs) in
    if json then
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("series", Series.to_json series);
                ("stall", Stall.to_json ~interval attrs);
              ]))
    else begin
      Printf.printf "%s\n" (Campaign.describe spec);
      Vs_stats.Table.print (Series.to_table series);
      Vs_stats.Table.print (Stall.to_table ~interval attrs)
    end
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Continuous telemetry for a seed campaign or corpus repro: \
          per-window protocol activity and cost percentiles (the vsmon \
          series), plus the flush-stall attribution splitting each \
          install's latency into propose-wait / flush-ack-wait / \
          stability-wait.")
    Term.(
      const run $ seed_arg $ nodes_arg $ evs_arg $ replay_arg $ interval_arg
      $ json)

let metrics_cmd =
  let format =
    Arg.(
      value
      & opt (enum [ ("openmetrics", `Openmetrics); ("json", `Json) ])
          `Openmetrics
      & info [ "format" ] ~docv:"FORMAT"
          ~doc:
            "Output format: $(b,openmetrics) (Prometheus text exposition) \
             or $(b,json).")
  in
  let run seed nodes evs replay format =
    let spec = spec_of ~seed ~nodes ~evs ~replay in
    let m = Metrics.of_entries (snd (record spec)) in
    match format with
    | `Openmetrics -> print_string (Openmetrics.of_metrics m)
    | `Json -> print_endline (Json.to_string (Metrics.to_json m))
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run a seed campaign or corpus repro and expose the end-of-run \
          metrics registry — counters, gauges, HDR histograms — as \
          deterministic OpenMetrics text or canonical JSON.")
    Term.(const run $ seed_arg $ nodes_arg $ evs_arg $ replay_arg $ format)

(* ---------- path / diff-runs (vspath surfacing) ---------- *)

module Causal = Vs_obs.Causal
module Critpath = Vs_obs.Critpath
module Rundiff = Vs_obs.Rundiff

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc text)

let path_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Machine-readable JSON instead of tables.")
  in
  let flame =
    Arg.(
      value
      & opt (some string) None
      & info [ "flame" ] ~docv:"FILE"
          ~doc:
            "Also write the folded-stack export (flamegraph.pl input) to \
             $(docv).")
  in
  let run seed nodes evs replay json flame =
    let spec = spec_of ~seed ~nodes ~evs ~replay in
    let dag = Causal.of_entries (snd (record spec)) in
    (match Causal.validate dag with
    | Ok () -> ()
    | Error msg ->
        Printf.eprintf "causal DAG validation failed: %s\n" msg;
        exit 2);
    let cp = Critpath.of_dag dag in
    (match flame with
    | Some file -> write_file file (Critpath.folded cp)
    | None -> ());
    let st = Causal.stats dag in
    if json then
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ( "dag",
                  Json.Obj
                    [
                      ("nodes", Json.Int st.Causal.c_nodes);
                      ("program_edges", Json.Int st.Causal.c_program_edges);
                      ("message_edges", Json.Int st.Causal.c_message_edges);
                      ("barrier_edges", Json.Int st.Causal.c_barrier_edges);
                      ("orphan_recvs", Json.Int st.Causal.c_orphan_recvs);
                    ] );
                ("critpath", Critpath.to_json cp);
              ]))
    else begin
      Printf.printf "%s\n" (Campaign.describe spec);
      Printf.printf
        "causal DAG: %d nodes, %d program + %d message + %d barrier edges, \
         %d orphan recvs\n\n"
        st.Causal.c_nodes st.Causal.c_program_edges st.Causal.c_message_edges
        st.Causal.c_barrier_edges st.Causal.c_orphan_recvs;
      Vs_stats.Table.print (Critpath.to_table cp);
      let o = cp.Critpath.ops in
      Printf.printf
        "applied ops: %d walked, %d retransmit-delayed, slowest %s \
         (%.6f s), mean path %.6f s\n"
        o.Critpath.o_ops o.Critpath.o_retransmit_delayed
        (match o.Critpath.o_slowest with
        | Some (m, _) -> Event.msg_to_string m
        | None -> "-")
        o.Critpath.o_latency_max
        (if o.Critpath.o_ops = 0 then 0.
         else o.Critpath.o_latency_total /. float_of_int o.Critpath.o_ops);
      match cp.Critpath.straggler with
      | Some (p, c) ->
          Printf.printf "cluster straggler: %s (%.4f s charged on install \
                         paths)\n"
            (Event.proc_to_string p) c
      | None -> ()
    end
  in
  Cmd.v
    (Cmd.info "path"
       ~doc:
         "Causal critical-path profile of a seed campaign or corpus repro: \
          build the happened-before DAG from a full recording, decompose \
          every view installation's latency into typed segments \
          (local-compute, network-flight, retransmit-wait, flush-ack-wait, \
          stability-wait, suspect-timeout) attributed to processes and \
          links, and name the per-view straggler.  $(b,--flame) writes \
          folded stacks for flamegraph rendering.")
    Term.(
      const run $ seed_arg $ nodes_arg $ evs_arg $ replay_arg $ json $ flame)

(* Each side of a diff is either an integer seed (generated campaign) or a
   path to a corpus repro artifact. *)
let side_spec ~nodes ~evs arg =
  match int_of_string_opt arg with
  | Some seed -> spec_of ~seed ~nodes ~evs ~replay:None
  | None -> spec_of ~seed:0 ~nodes ~evs ~replay:(Some arg)

let diff_runs_cmd =
  let a_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"A"
          ~doc:"Baseline run: an integer seed or a repro artifact path.")
  in
  let b_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"B"
          ~doc:"Candidate run: an integer seed or a repro artifact path.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Machine-readable JSON instead of text.")
  in
  let run a b nodes evs json =
    let spec_a = side_spec ~nodes ~evs a and spec_b = side_spec ~nodes ~evs b in
    let d = Rundiff.diff ~a:(snd (record spec_a)) ~b:(snd (record spec_b)) in
    if json then print_endline (Json.to_string (Rundiff.to_json d))
    else begin
      Printf.printf "A: %s\nB: %s\n\n" (Campaign.describe spec_a)
        (Campaign.describe spec_b);
      print_string (Rundiff.to_text d)
    end
  in
  Cmd.v
    (Cmd.info "diff-runs"
       ~doc:
         "Structurally diff two recorded runs (seeds or corpus repros): \
          align on the view graph and (origin, seq) message lineage, report \
          the first causal divergence — naming the corrupted field when a \
          transient-corruption event is where they part — and the \
          per-phase latency deltas.")
    Term.(const run $ a_arg $ b_arg $ nodes_arg $ evs_arg $ json)

let () =
  let info =
    Cmd.info "vscli" ~version:"1.0.0"
      ~doc:
        "Enriched view synchrony simulator — reproduction of 'On \
         Programming with View Synchrony' (ICDCS 1996)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            check_cmd; explain_cmd; query_cmd; trace_cmd; top_cmd; metrics_cmd;
            path_cmd; diff_runs_cmd;
          ]))
