(* Benchmark harness: regenerates every table of EXPERIMENTS.md (the
   executable counterparts of the paper's Figures 1-3 and analytical claims
   C1-C3), the observability overhead record and the throughput profile.

   Usage:
     bench/main.exe            run everything (full-size experiments)
     bench/main.exe quick      smaller sweeps (CI-sized)
     bench/main.exe e4 e11     only the named experiments, full-size
     bench/main.exe e4 obs     named experiments plus the obs section

   Unknown arguments are rejected with a usage message. *)

module Table = Vs_stats.Table
module Alloc = Vs_stats.Alloc
module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View

module Recorder = Vs_obs.Recorder
module Json = Vs_obs.Json

(* vslint: allow D1 — wall-clock is the quantity being measured; bench output only *)
let now_ms () = Unix.gettimeofday () *. 1000.

(* Consolidated machine-readable record: every section that runs contributes
   key/value pairs here, and main writes BENCH_obs.json on every invocation
   (not just when the obs section runs). *)
let bench_record : (string * Json.t) list ref = ref []

let exp_walls : (string * float) list ref = ref []

(* Regression gate for a committed BENCH_*.json: diff the candidate against
   it and refuse to overwrite it on a deterministic regression (zero-alloc
   booleans, counted words, lint findings, the 10x data-plane gate, the
   critical path's consistent_with_stall), so a re-run still sees the
   baseline.  Wall clock and allocation totals are reported but never
   gate. *)
let gate_and_write ~path json =
  let module Bd = Vs_obs.Bench_diff in
  (if Sys.file_exists path then
     match Bd.load path with
     | Error msg ->
         Printf.printf
           "note: committed %s unparseable (%s); skipping the regression diff\n"
           path msg
     | Ok old_doc ->
         let rows = Bd.diff ~old_doc ~new_doc:json () in
         Table.print (Bd.to_table rows);
         print_endline (Bd.summary rows);
         let det = Bd.deterministic_regressions rows in
         List.iter
           (fun (r : Bd.row) ->
             Printf.printf "BENCH REGRESSION (deterministic key): %s (%s)\n"
               r.Bd.key r.Bd.r_note)
           det;
         if det <> [] then begin
           Printf.printf
             "%s left unchanged (deterministic regression vs the committed \
              baseline)\n"
             path;
           exit 1
         end);
  let oc = open_out path in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" path

let experiments =
  [
    ("e1", "Figure 1: mode-transition matrix", Vs_exp.Exp_modes.tables);
    ("e2e3", "Figures 2 & 3: enriched-view scenarios", Vs_exp.Exp_figures.tables);
    ("e4", "Claim C1: one-at-a-time vs batch admission", Vs_exp.Exp_join.tables);
    ("e5", "Sections 4/6.2: shared-state classification", Vs_exp.Exp_classify.tables);
    ("e6", "Claim C2: blocking vs two-piece transfer", Vs_exp.Exp_transfer.tables);
    ("e7", "Example 1: file availability under churn", Vs_exp.Exp_file.tables);
    ("e8", "Example 2: parallel look-up coverage", Vs_exp.Exp_db.tables);
    ("e9e10", "Overheads: EVS and flush costs", Vs_exp.Exp_overhead.tables);
    ("e11", "Loss tolerance: control plane under drop/dup", Vs_exp.Exp_loss.tables);
    ("t", "Experiment T: sustained-throughput data plane", Vs_exp.Exp_throughput.tables);
  ]

let run_experiments ~quick ~only =
  List.iter
    (fun (id, blurb, tables) ->
      let selected =
        match only with [] -> true | ids -> List.mem id ids
      in
      if selected then begin
        Printf.printf "### %s — %s\n\n%!" (String.uppercase_ascii id) blurb;
        let run : ?quick:bool -> unit -> Table.t list = tables in
        let t0 = now_ms () in
        List.iter Table.print (run ~quick ());
        exp_walls := !exp_walls @ [ (id, now_ms () -. t0) ]
      end)
    experiments

(* ---------- observability overhead: instrumentation off vs on ---------- *)

(* Allocation is the honest overhead metric here: it is deterministic (so it
   belongs in a lint-clean bench) and it is exactly what the Full-level
   guards are supposed to eliminate on the off path. *)
let measured_alloc f =
  Gc.full_major ();
  let before = Gc.allocated_bytes () in
  f ();
  Gc.allocated_bytes () -. before

(* Words allocated per [Net.send] at a given recording level. *)
let words_per_send ?(with_series = false) ?(with_causal = false) ~level () =
  let module Net = Vs_net.Net in
  let module Sim = Vs_sim.Sim in
  let recorder = Recorder.create ~level () in
  (* [with_series] attaches a vsmon scrape series at the default interval —
     the acceptance bar is that the off-path word count does not move.
     [with_causal] attaches the vspath causal collector the same way; both
     can be live at once (the multi-sink regression in test_vspath.ml is the
     functional half, this is the allocation half). *)
  if with_series then begin
    let s = Vs_obs.Series.create () in
    ignore
      (Recorder.add_sink recorder (Vs_obs.Series.observe s)
        : Recorder.sink_handle)
  end;
  if with_causal then begin
    let c = Vs_obs.Causal.collector () in
    ignore
      (Recorder.add_sink recorder (Vs_obs.Causal.observe c)
        : Recorder.sink_handle)
  end;
  let sim = Sim.create ~seed:11L ~obs:recorder () in
  let net = Net.create sim Net.default_config in
  let a = Proc_id.initial 0 and b = Proc_id.initial 1 in
  Net.register net a (fun _ -> ());
  Net.register net b (fun _ -> ());
  Alloc.words_per (fun () -> Net.send net ~src:a ~dst:b 0)

(* Words allocated per [Hdr.record] — the runtime half of the A1 alloc-free
   certificate on the histogram's record path.  The sample values are
   pre-boxed in a list and the recording closure is pre-allocated, so the
   measured loop executes nothing but [record] itself; the assertion in
   [run_obs] demands exactly zero. *)
let words_per_hdr_record () =
  let module Hdr = Vs_obs.Hdr in
  let h = Hdr.create () in
  let samples = [ 0.0; 0.0000004; 0.0001; 0.004; 0.2; 3.5; 70.; 2.5e7 ] in
  let record_one = Hdr.record h in
  Alloc.words_per (fun () -> List.iter record_one samples)
  /. float_of_int (List.length samples)

(* The same off-path discipline, re-asserted for the batched data plane: a
   net instantiated exactly as the protocol stack builds it (Wire sizing,
   kind, per-payload identity extraction) carrying a prebuilt [Wire.Batch].
   The [idents] hook walks every payload of the batch — but only under Full
   recording, so Off and Protocol must still match to the word. *)
let words_per_send_batch ~level =
  let module Net = Vs_net.Net in
  let module Sim = Vs_sim.Sim in
  let module Wire = Vs_vsync.Wire in
  let recorder = Recorder.create ~level () in
  let sim = Sim.create ~seed:13L ~obs:recorder () in
  let user (u : int) =
    Some { Vs_obs.Event.origin = { Vs_obs.Event.node = 0; inc = 0 }; mseq = u }
  in
  let net =
    Net.create
      ~size_of:(Wire.size_of ~user:(fun (_ : int) -> 8) ~ann:(fun () -> 8))
      ~describe:Wire.kind ~idents:(Wire.idents ~user)
      sim Net.default_config
  in
  let a = Proc_id.initial 0 and b = Proc_id.initial 1 in
  Net.register net a (fun _ -> ());
  Net.register net b (fun _ -> ());
  let vid = View.Id.initial a in
  let batch : (int, unit) Wire.t =
    Wire.Batch
      (List.init 4 (fun seq -> { Wire.vid; sender = a; seq; body = Wire.User seq }))
  in
  Alloc.words_per (fun () -> Net.send net ~src:a ~dst:b batch)

(* The stabilization arc compiles corruption hooks (Endpoint.corrupt and its
   obs events) into the protocol library.  They live on endpoint state, not
   the wire — so after actually exercising one against a live cluster, the
   off-path send allocation must still match the pre-corruption baseline to
   the word. *)
let exercise_corruption_hooks () =
  let module Cluster = Vs_harness.Cluster in
  let module Endpoint = Vs_vsync.Endpoint in
  let c = Cluster.vsync ~seed:17L ~n:3 () in
  Cluster.run c ~until:2.0;
  (match Cluster.on_node c 0 with
  | Some ep ->
      ignore (Endpoint.corrupt ep (Endpoint.Seq_skew 3) : string);
      ignore (Endpoint.corrupt ep (Endpoint.Stability_smear (1, 4)) : string)
  | None -> ());
  Cluster.run c ~until:3.0

let run_obs () =
  print_endline "### OBS — observability overhead (instrumentation off vs on)\n";
  (* 1. The send fast path must not allocate for instrumentation unless the
     run records at Full level: Off and Protocol must match to the word. *)
  let off = words_per_send ~level:Recorder.Off () in
  let proto = words_per_send ~level:Recorder.Protocol () in
  let full = words_per_send ~level:Recorder.Full () in
  let off_b = words_per_send_batch ~level:Recorder.Off in
  let proto_b = words_per_send_batch ~level:Recorder.Protocol in
  let full_b = words_per_send_batch ~level:Recorder.Full in
  let alloc_table =
    Table.create ~title:"allocation per Net.send by recording level"
      ~columns:[ "level"; "words/send"; "words/send (4-payload batch)" ]
  in
  Table.add_rows alloc_table
    [
      [ "off"; Table.ffloat ~decimals:1 off; Table.ffloat ~decimals:1 off_b ];
      [
        "protocol";
        Table.ffloat ~decimals:1 proto;
        Table.ffloat ~decimals:1 proto_b;
      ];
      [ "full"; Table.ffloat ~decimals:1 full; Table.ffloat ~decimals:1 full_b ];
    ];
  Table.print alloc_table;
  if proto <> off then begin
    Printf.printf
      "OBS FAILURE: send allocates %+.1f extra words at Protocol level \
       (expected zero off-path overhead)\n"
      (proto -. off);
    exit 1
  end;
  if proto_b <> off_b then begin
    Printf.printf
      "OBS FAILURE: batched send allocates %+.1f extra words at Protocol \
       level (expected zero off-path overhead)\n"
      (proto_b -. off_b);
    exit 1
  end;
  (* 1b. Corruption hooks compiled in and exercised must leave the off-path
     send allocation word-for-word where it was. *)
  exercise_corruption_hooks ();
  let off_pc = words_per_send ~level:Recorder.Off () in
  let proto_pc = words_per_send ~level:Recorder.Protocol () in
  if off_pc <> off || proto_pc <> proto then begin
    Printf.printf
      "OBS FAILURE: send allocation moved after exercising corruption hooks \
       (off %.1f -> %.1f, protocol %.1f -> %.1f words/send)\n"
      off off_pc proto proto_pc;
    exit 1
  end;
  (* 1b'. A vsmon series scraping at the default interval must be invisible
     to the same word counts: window closing is driven by recorded events,
     and below Full the send path records nothing. *)
  let off_s = words_per_send ~with_series:true ~level:Recorder.Off () in
  let proto_s = words_per_send ~with_series:true ~level:Recorder.Protocol () in
  if off_s <> off || proto_s <> proto then begin
    Printf.printf
      "OBS FAILURE: send allocation moved with a scrape series attached \
       (off %.1f -> %.1f, protocol %.1f -> %.1f words/send)\n"
      off off_s proto proto_s;
    exit 1
  end;
  (* 1b'''. Same bar for the vspath causal collector: it only sees what the
     recorder emits, so below Full the send path must stay word-for-word
     identical with the collector attached (ISSUE 10's bench gate). *)
  let off_c = words_per_send ~with_causal:true ~level:Recorder.Off () in
  let proto_c = words_per_send ~with_causal:true ~level:Recorder.Protocol () in
  if off_c <> off || proto_c <> proto then begin
    Printf.printf
      "OBS FAILURE: send allocation moved with a causal collector attached \
       (off %.1f -> %.1f, protocol %.1f -> %.1f words/send)\n"
      off off_c proto proto_c;
    exit 1
  end;
  (* 1b''. The histogram record path itself: rule A1 proves it allocation-
     free statically; the word counter must agree exactly. *)
  let hdr_words = words_per_hdr_record () in
  Printf.printf "Hdr.record: %.3f words/record (must be 0)\n\n" hdr_words;
  if hdr_words <> 0.0 then begin
    Printf.printf
      "OBS FAILURE: Hdr.record allocates %.3f words per call (A1 certifies \
       it alloc-free)\n"
      hdr_words;
    exit 1
  end;
  (* 1c. The static half of the same guarantee: Net publishes the contract
     list that vslint's A1 annotations prove allocation-free at build time
     (and rule B1 pins the two sets together).  Record it next to the
     runtime word counts so the guards are auditable side by side, and
     refuse an empty contract outright — an empty list would mean the
     runtime assertion above is measuring functions the analyzer no longer
     proves anything about. *)
  let contract =
    Vs_net.Net.zero_alloc_contract @ Vs_obs.Hdr.zero_alloc_contract
  in
  if contract = [] then begin
    print_endline
      "OBS FAILURE: Net.zero_alloc_contract is empty (the static and \
       runtime zero-alloc guards are no longer tied together)";
    exit 1
  end;
  (* 2. Whole-experiment allocation deltas, instrumentation off vs Full, via
     the process-wide default level every Sim.create picks up.  Allocation
     is deterministic, so one run measures it; wall clock is not, so the
     reported wall_ms_* is the median of [wall_reps] runs (satellite of
     PR 9: single-shot numbers produced nonsense like e1's on < off). *)
  let wall_reps = 3 in
  let median xs =
    let sorted = List.sort Float.compare xs in
    List.nth sorted (List.length sorted / 2)
  in
  let saved = Recorder.default_level () in
  let rows =
    List.map
      (fun (id, _blurb, tables) ->
        let run : ?quick:bool -> unit -> Table.t list = tables in
        let measure level =
          Recorder.set_default_level level;
          let t0 = now_ms () in
          let bytes = measured_alloc (fun () -> ignore (run ~quick:true ())) in
          let first_ms = now_ms () -. t0 in
          let rest =
            List.init (wall_reps - 1) (fun _ ->
                let t = now_ms () in
                ignore (run ~quick:true ());
                now_ms () -. t)
          in
          (bytes, median (first_ms :: rest))
        in
        let bytes_off, ms_off = measure Recorder.Off in
        let bytes_on, ms_on = measure Recorder.Full in
        (id, bytes_off, bytes_on, ms_off, ms_on))
      experiments
  in
  Recorder.set_default_level saved;
  (* The obs section's experiment record is the heart of BENCH_obs.json —
     refuse to emit an empty one. *)
  if rows = [] then begin
    print_endline "OBS FAILURE: no per-experiment overhead rows measured";
    exit 1
  end;
  let delta_table =
    Table.create
      ~title:
        "E-series allocation and wall time, recording off vs Full (quick \
         sweeps)"
      ~columns:[ "experiment"; "MB off"; "MB on"; "ratio"; "ms off"; "ms on" ]
  in
  List.iter
    (fun (id, bytes_off, bytes_on, ms_off, ms_on) ->
      Table.add_row delta_table
        [
          id;
          Table.ffloat ~decimals:2 (bytes_off /. 1e6);
          Table.ffloat ~decimals:2 (bytes_on /. 1e6);
          Table.ffloat ~decimals:3
            (if bytes_off > 0. then bytes_on /. bytes_off else 0.);
          Table.ffloat ~decimals:1 ms_off;
          Table.ffloat ~decimals:1 ms_on;
        ])
    rows;
  Table.print delta_table;
  (* 3. Derived metrics for one Full-level campaign, the block EXPERIMENTS.md
     points at for the paper's per-view costs. *)
  let module Campaign = Vs_check.Campaign in
  let module Metrics = Vs_obs.Metrics in
  let recorder = Recorder.create ~level:Recorder.Full () in
  let spec = Campaign.generate ~seed:7 ~nodes:5 ~quick:true () in
  let (_ : Campaign.outcome) = Campaign.run ~obs:recorder spec in
  Printf.printf "metrics for one Full-level campaign (%s):\n\n"
    (Campaign.describe spec);
  print_endline (Metrics.to_text (Metrics.of_entries (Recorder.entries recorder)));
  print_newline ();
  (* 4. Machine-readable record of the same numbers, consolidated into the
     BENCH_obs.json main writes at exit. *)
  bench_record :=
    !bench_record
    @ [
        ( "send_words_per_call",
          Json.Obj
            [
              ("off", Json.Float off);
              ("protocol", Json.Float proto);
              ("full", Json.Float full);
            ] );
        ("zero_alloc_off_path", Json.Bool (proto = off));
        ( "send_words_per_call_batched",
          Json.Obj
            [
              ("off", Json.Float off_b);
              ("protocol", Json.Float proto_b);
              ("full", Json.Float full_b);
            ] );
        ("zero_alloc_off_path_batched", Json.Bool (proto_b = off_b));
        ( "zero_alloc_off_path_post_corruption",
          Json.Bool (off_pc = off && proto_pc = proto) );
        ( "zero_alloc_off_path_with_series",
          Json.Bool (off_s = off && proto_s = proto) );
        ( "zero_alloc_off_path_with_causal",
          Json.Bool (off_c = off && proto_c = proto) );
        ("hdr_record_words_per_call", Json.Float hdr_words);
        ("zero_alloc_hdr_record", Json.Bool (hdr_words = 0.0));
        ( "zero_alloc_contract",
          Json.Arr (List.map (fun s -> Json.Str s) contract) );
        ( "experiments",
          Json.Arr
            (List.map
               (fun (id, bytes_off, bytes_on, ms_off, ms_on) ->
                 Json.Obj
                   [
                     ("id", Json.Str id);
                     ("alloc_bytes_off", Json.Float bytes_off);
                     ("alloc_bytes_on", Json.Float bytes_on);
                     ( "overhead_ratio",
                       Json.Float
                         (if bytes_off > 0. then bytes_on /. bytes_off else 0.)
                     );
                     ("wall_ms_off", Json.Float ms_off);
                     ("wall_ms_on", Json.Float ms_on);
                   ])
               rows) );
      ]

(* ---------- lint wall time ---------- *)

(* The whole-program lint (call graph + effect fixpoint + C1/A1/S2/B1) is
   part of every dune runtest via @lint; the quick profile times the same
   pass so a pathological slowdown of the analyzer shows up in
   BENCH_obs.json like any other regression.  Skipped when the source tree
   is not visible from the working directory. *)
let run_lint_profile () =
  let roots =
    List.filter Sys.file_exists [ "lib"; "bin"; "bench"; "examples" ]
  in
  if roots <> [] then begin
    let t0 = now_ms () in
    let report = Vs_lint.Whole.analyze_paths roots in
    let ms = now_ms () -. t0 in
    Printf.printf
      "lint: whole-program pass over %d file(s) in %.1f ms (%d finding(s))\n\n"
      report.Vs_lint.Whole.files ms
      (List.length report.Vs_lint.Whole.findings);
    bench_record :=
      !bench_record
      @ [
          ( "lint",
            Json.Obj
              [
                ("files", Json.Int report.Vs_lint.Whole.files);
                ( "findings",
                  Json.Int (List.length report.Vs_lint.Whole.findings) );
                ("wall_ms", Json.Float ms);
              ] );
        ]
  end

(* ---------- sustained throughput: the wall-clock profile ---------- *)

(* The T experiment in the registry above runs without a clock (registry
   output must be deterministic); this profile re-runs it with the wall
   clock injected and writes the machine-readable BENCH_throughput.json —
   the evidence behind the 10× batched-vs-unbatched claim.  [scale]
   additionally reruns claim C1 with two k = 500 partitions (a
   1000-process simulation: several minutes, ~1.5 GB). *)
let run_throughput ~quick ~scale =
  let module TP = Vs_exp.Exp_throughput in
  (* vslint: allow D1 — wall-clock is the quantity being measured; bench output only *)
  let clock () = Unix.gettimeofday () in
  Printf.printf "### THROUGHPUT — sustained-load data plane (%s)\n\n%!"
    (if quick then "quick" else "full");
  let kv = TP.run_arms ~clock ~quick () in
  Table.print (TP.throughput_table kv);
  Table.print (TP.critpath_table kv);
  (* The vspath cross-check is a hard gate, not a reported number: a
     decomposition that no longer sums to the install latency or disagrees
     with the Stall attribution means the profiler is lying about where the
     latency went. *)
  List.iter
    (fun (r : TP.result) ->
      if not r.TP.r_critpath_consistent then begin
        Printf.printf
          "THROUGHPUT FAILURE: arm %s critical-path decomposition disagrees \
           with the Stall attribution (or does not sum to install latency)\n"
          r.TP.r_name;
        exit 1
      end)
    kv;
  let dp = TP.run_data_plane ~clock ~quick () in
  Table.print (TP.data_plane_table dp);
  let dp_speedup = TP.dp_speedup dp in
  (match dp_speedup with
  | Some s ->
      Printf.printf
        "data-plane sustained ops/sec, batched+pipelined vs unbatched: %.1fx\n\n"
        s
  | None -> ());
  let merge_ks = if scale then [ 500 ] else if quick then [ 25 ] else [ 100 ] in
  let merges = List.map (fun k -> TP.merge_at_scale ~k) merge_ks in
  Table.print (TP.merge_table merges);
  let pct_obj label p50 p99 =
    ( label,
      Json.Obj
        [
          ("p50_ms", match p50 with Some s -> Json.Float (s *. 1000.) | None -> Json.Null);
          ("p99_ms", match p99 with Some s -> Json.Float (s *. 1000.) | None -> Json.Null);
        ] )
  in
  let opt_float = function Some f -> Json.Float f | None -> Json.Null in
  let json =
    Json.Obj
      [
        ("quick", Json.Bool quick);
        ( "kv_arms",
          Json.Arr
            (List.map
               (fun (r : TP.result) ->
                 Json.Obj
                   [
                     ("name", Json.Str r.TP.r_name);
                     ("offered", Json.Int r.TP.r_offered);
                     ("accepted", Json.Int r.TP.r_accepted);
                     ("applied_in_window", Json.Int r.TP.r_applied);
                     ("wall_s", opt_float r.TP.r_wall_s);
                     ("ops_per_wall_s", opt_float r.TP.r_ops_per_wall_s);
                     pct_obj "put_latency"
                       (TP.sum_pct r.TP.r_put_lat 0.5)
                       (TP.sum_pct r.TP.r_put_lat 0.99);
                     pct_obj "install_latency"
                       (TP.hist_pct r.TP.r_install 0.5)
                       (TP.hist_pct r.TP.r_install 0.99);
                     pct_obj "flush_stall"
                       (TP.hist_pct r.TP.r_flush 0.5)
                       (TP.hist_pct r.TP.r_flush 0.99);
                     ("wire_msgs_per_op", Json.Float r.TP.r_wire_per_op);
                     ( "critical_path",
                       Json.Obj
                         (List.map
                            (fun (k, v) -> (k, Json.Float v))
                            r.TP.r_critpath
                         @ [
                             ( "straggler",
                               match r.TP.r_straggler with
                               | Some (p, c) ->
                                   Json.Obj
                                     [
                                       ("proc", Json.Str p);
                                       ("charged_s", Json.Float c);
                                     ]
                               | None -> Json.Null );
                             ( "consistent_with_stall",
                               Json.Bool r.TP.r_critpath_consistent );
                           ]) );
                     ( "windows",
                       Json.Arr
                         (List.map
                            (fun (w : TP.window_stat) ->
                              Json.Obj
                                [
                                  ("window", Json.Int w.TP.ws_index);
                                  ("t_start", Json.Float w.TP.ws_start);
                                  ("t_end", Json.Float w.TP.ws_end);
                                  ("applied", Json.Int w.TP.ws_applied);
                                  ("ops_per_s", Json.Float w.TP.ws_ops_per_s);
                                  ("installs", Json.Int w.TP.ws_installs);
                                  ( "install_p99_ms",
                                    match w.TP.ws_install_p99 with
                                    | Some s -> Json.Float (s *. 1000.)
                                    | None -> Json.Null );
                                ])
                            r.TP.r_windows) );
                   ])
               kv) );
        ( "data_plane",
          Json.Obj
            [
              ( "arms",
                Json.Arr
                  (List.map
                     (fun (r : TP.dp_result) ->
                       Json.Obj
                         [
                           ("name", Json.Str r.TP.p_name);
                           ("offered", Json.Int r.TP.p_offered);
                           ("delivered_all_replicas", Json.Int r.TP.p_delivered);
                           ("wall_s", opt_float r.TP.p_wall_s);
                           ("ops_per_wall_s", opt_float r.TP.p_ops_per_wall_s);
                           ("wire_msgs_per_op", Json.Float r.TP.p_wire_per_op);
                           ("batch_rounds", Json.Int r.TP.p_batches);
                         ])
                     dp) );
              ("speedup", opt_float dp_speedup);
              ( "gate_10x",
                Json.Bool
                  (match dp_speedup with Some s -> s >= 10.0 | None -> false)
              );
            ] );
        ( "c1_at_scale",
          Json.Arr
            (List.map
               (fun (m : Vs_exp.Exp_join.sample) ->
                 Json.Obj
                   [
                     ("k", Json.Int m.k);
                     ("installs_after_heal", Json.Int m.installs_total);
                     ("installs_per_proc", Json.Float m.installs_per_proc);
                     ("merge_latency_s", Json.Float m.merge_latency);
                   ])
               merges) );
      ]
  in
  gate_and_write ~path:"BENCH_throughput.json" json

let () =
  let args =
    match Array.to_list Sys.argv with [] -> [] | _program :: rest -> rest
  in
  let known_ids = List.map (fun (id, _, _) -> id) experiments in
  let unknown =
    List.filter
      (fun a ->
        not
          (List.mem a
             ("quick" :: "obs" :: "throughput" :: "scale" :: known_ids)))
      args
  in
  if unknown <> [] then begin
    Printf.eprintf "unknown argument(s): %s\n" (String.concat " " unknown);
    Printf.eprintf
      "usage: main.exe [quick] [obs] [throughput [scale]] [%s]...\n\
      \  no arguments        run all experiments, the observability overhead\n\
      \                      section and a quick throughput profile\n\
      \  quick               smaller sweeps (CI-sized)\n\
      \  obs                 run the observability overhead section\n\
      \  throughput          run the wall-clock sustained-throughput profile\n\
      \                      (writes BENCH_throughput.json)\n\
      \  scale               with throughput: rerun C1 with k = 500\n\
      \                      partitions (minutes of wall time)\n\
      \  <experiment id>     run only the named experiments\n"
      (String.concat "|" known_ids);
    exit 2
  end;
  let quick = List.mem "quick" args in
  let obs = List.mem "obs" args in
  let throughput = List.mem "throughput" args in
  let scale = List.mem "scale" args in
  let only = List.filter (fun a -> List.mem a known_ids) args in
  (* Experiment ids, [obs] and [throughput] compose; naming any of them
     skips the unnamed sections. *)
  let run_all = only = [] && (not obs) && not throughput in
  print_endline
    "On Programming with View Synchrony (ICDCS 1996) — experiment \
     reproduction\n";
  if only <> [] || run_all then run_experiments ~quick ~only;
  if quick && only = [] then run_lint_profile ();
  if obs || run_all then run_obs ();
  (* The default profile carries the quick throughput variant, so
     BENCH_throughput.json is refreshed on every full bench run. *)
  if throughput then run_throughput ~quick ~scale
  else if run_all then run_throughput ~quick:true ~scale:false;
  (* Consolidated record: whatever sections ran, plus the wall time of every
     experiment of this invocation.  [experiment_wall_ms] is only emitted
     when the experiment registry actually ran — an obs-only invocation used
     to leave a dead [{}] behind.  Written only when the obs section itself
     ran: it is the heart of the artifact, and a partial invocation
     (experiments only, `throughput quick`'s lint ride-along) must
     never wipe the committed record down to its own subset of keys. *)
  if (obs || run_all) && (!bench_record <> [] || !exp_walls <> []) then begin
    let json =
      Json.Obj
        (!bench_record
        @
        match !exp_walls with
        | [] -> []
        | walls ->
            [
              ( "experiment_wall_ms",
                Json.Obj (List.map (fun (id, ms) -> (id, Json.Float ms)) walls)
              );
            ])
    in
    gate_and_write ~path:"BENCH_obs.json" json
  end
