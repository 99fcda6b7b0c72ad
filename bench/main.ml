(* Benchmark harness: prints every table of EXPERIMENTS.md (the executable
   counterparts of the paper's Figures 1-3 and analytical claims C1-C3),
   the observability overhead tables and the wall-clock throughput profile.
   It writes no file.  `dune runtest` pins the deterministic numbers (the
   bench_*_sample.txt goldens and the test suites); vsbench
   (BENCHMARK.json) judges wall-clock regressions and records each run's
   spread.  The only checks made here are the ones no test makes on this
   output: a non-empty zero-alloc contract and a consistent critical path
   for every throughput arm.

   Usage:
     bench/main.exe            run everything (full-size experiments)
     bench/main.exe quick      smaller sweeps (CI-sized)
     bench/main.exe e4 e11     only the named experiments, full-size
     bench/main.exe e4 obs     named experiments plus the obs section
     bench/main.exe throughput [quick] [scale]   the wall-clock profile

   Unknown arguments, and [scale] without [throughput], are rejected with
   exit 2 and a usage message. *)

module Table = Vs_stats.Table
module Alloc = Vs_stats.Alloc
module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View

module Recorder = Vs_obs.Recorder

(* vslint: allow D1 — wall-clock is the quantity being measured; bench output only *)
let now_ms () = Unix.gettimeofday () *. 1000.

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
      if only = [] || List.mem id only then begin
        Printf.printf "### %s — %s\n\n%!" (String.uppercase_ascii id) blurb;
        let run : ?quick:bool -> unit -> Table.t list = tables in
        List.iter Table.print (run ~quick ())
      end)
    experiments

(* ---------- observability overhead: instrumentation off vs on ---------- *)

(* Allocation is the overhead metric here: it is what the Full-level guards
   keep off the Off path.  test_obs's "zero-alloc runtime guard" asserts the
   Off = Protocol half for every send shape; this section prints the counts
   at all three levels, the only place the Full-level ones show. *)

(* Words allocated per [Net.send] at a given recording level. *)
let words_per_send ~level =
  let module Net = Vs_net.Net in
  let module Sim = Vs_sim.Sim in
  let recorder = Recorder.create ~level () in
  let sim = Sim.create ~seed:11L ~obs:recorder () in
  let net = Net.create sim Net.default_config in
  let a = Proc_id.initial 0 and b = Proc_id.initial 1 in
  Net.register net a (fun _ -> ());
  Net.register net b (fun _ -> ());
  Alloc.words_per (fun () -> Net.send net ~src:a ~dst:b 0)

(* The same count for the batched data plane: a net instantiated exactly as
   the protocol stack builds it (Wire sizing, kind, per-payload identity
   extraction) carrying a prebuilt [Wire.Batch].  The [idents] hook walks
   every payload of the batch, but only under Full recording. *)
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

let run_obs () =
  print_endline "### OBS — observability overhead (instrumentation off vs on)\n";
  (* 1. Words per send at each recording level. *)
  let alloc_table =
    Table.create ~title:"allocation per Net.send by recording level"
      ~columns:[ "level"; "words/send"; "words/send (4-payload batch)" ]
  in
  Table.add_rows alloc_table
    (List.map
       (fun (name, level) ->
         [
           name;
           Table.ffloat ~decimals:1 (words_per_send ~level);
           Table.ffloat ~decimals:1 (words_per_send_batch ~level);
         ])
       [
         ("off", Recorder.Off);
         ("protocol", Recorder.Protocol);
         ("full", Recorder.Full);
       ]);
  Table.print alloc_table;
  (* 1b. The static half of the same guarantee: the functions vslint's A1
     proves allocation-free (rule B1 ties this list to those annotations).
     An empty list would mean the word counts above measure functions the
     analyzer no longer proves anything about. *)
  let contract =
    Vs_net.Net.zero_alloc_contract @ Vs_obs.Hdr.zero_alloc_contract
  in
  if contract = [] then begin
    print_endline
      "OBS FAILURE: Net.zero_alloc_contract is empty (the static and \
       runtime zero-alloc guards are no longer tied together)";
    exit 1
  end;
  Printf.printf "zero-alloc contract (A1-certified): %s\n\n"
    (String.concat " " contract);
  (* 2. Whole-experiment allocation, instrumentation off vs Full, via the
     process-wide default level every Sim.create picks up.  The word
     columns are a [Gc.minor_words] delta over the first run of each, the
     counter {!Alloc} reads, and repeat exactly between runs of one binary;
     wall clock is the median of [wall_reps] runs, since single-shot
     numbers can invert (e1's on < off). *)
  let wall_reps = 3 in
  let median xs =
    let sorted = List.sort Float.compare xs in
    List.nth sorted (List.length sorted / 2)
  in
  let saved = Recorder.default_level () in
  let delta_table =
    Table.create
      ~title:
        "E-series allocation and wall time, recording off vs Full (quick \
         sweeps)"
      ~columns:
        [
          "experiment";
          "M words off";
          "M words on";
          "ratio";
          "ms off";
          "ms on";
        ]
  in
  List.iter
    (fun (id, _blurb, tables) ->
      let run : ?quick:bool -> unit -> Table.t list = tables in
      let measure level =
        Recorder.set_default_level level;
        let t0 = now_ms () in
        let w0 = Gc.minor_words () in
        ignore (run ~quick:true ());
        let words = Gc.minor_words () -. w0 in
        let first_ms = now_ms () -. t0 in
        let rest =
          List.init (wall_reps - 1) (fun _ ->
              let t = now_ms () in
              ignore (run ~quick:true ());
              now_ms () -. t)
        in
        (words, median (first_ms :: rest))
      in
      let words_off, ms_off = measure Recorder.Off in
      let words_on, ms_on = measure Recorder.Full in
      Table.add_row delta_table
        [
          id;
          Table.ffloat ~decimals:6 (words_off /. 1e6);
          Table.ffloat ~decimals:6 (words_on /. 1e6);
          Table.ffloat ~decimals:3
            (if words_off > 0. then words_on /. words_off else 0.);
          Table.ffloat ~decimals:1 ms_off;
          Table.ffloat ~decimals:1 ms_on;
        ])
    experiments;
  Recorder.set_default_level saved;
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
  print_newline ()

(* ---------- lint wall time ---------- *)

(* The whole-program lint (call graph + effect fixpoint + C1/A1/S2/B1) is
   part of every dune runtest via @lint; the quick profile times the same
   pass so a pathological slowdown of the analyzer shows.  Skipped when the
   source tree is not visible from the working directory. *)
let run_lint_profile () =
  let roots =
    List.filter Sys.file_exists [ "lib"; "bin"; "bench"; "examples" ]
  in
  if roots <> [] then begin
    let t0 = now_ms () in
    let report = Vs_lint.Whole.analyze_paths roots in
    Printf.printf
      "lint: whole-program pass over %d file(s) in %.1f ms (%d finding(s))\n\n"
      report.Vs_lint.Whole.files (now_ms () -. t0)
      (List.length report.Vs_lint.Whole.findings)
  end

(* ---------- sustained throughput: the wall-clock profile ---------- *)

(* The T experiment in the registry above runs without a clock (registry
   output must be deterministic); this profile re-runs it with the wall
   clock injected and prints the ops/s columns and the data-plane ratio
   behind the batched-vs-unbatched claim.  [scale] reruns claim C1 with two
   k = 500 partitions (a 1000-process simulation: several minutes,
   ~1.5 GB). *)
let run_throughput ~quick ~scale =
  let module TP = Vs_exp.Exp_throughput in
  (* vslint: allow D1 — wall-clock is the quantity being measured; bench output only *)
  let clock () = Unix.gettimeofday () in
  Printf.printf "### THROUGHPUT — sustained-load data plane (%s)\n\n%!"
    (if quick then "quick" else "full");
  let kv = TP.run_arms ~clock ~quick () in
  Table.print (TP.throughput_table kv);
  Table.print (TP.critpath_table kv);
  (* A decomposition that no longer sums to the install latency or
     disagrees with the Stall attribution means the profiler is lying about
     where the latency went: that checks the code, not the machine. *)
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
  Option.iter
    (Printf.printf
       "data-plane sustained ops/sec, batched+pipelined vs unbatched: %.1fx\n\n")
    (TP.dp_speedup dp);
  let k = if scale then 500 else if quick then 25 else 100 in
  Table.print (TP.merge_table [ TP.merge_at_scale ~k ])

let usage known_ids =
  Printf.eprintf
    "usage: main.exe [quick] [obs] [throughput [scale]] [%s]...\n\
    \  no arguments        run all experiments, the observability overhead\n\
    \                      section and a quick throughput profile\n\
    \  quick               smaller sweeps (CI-sized)\n\
    \  obs                 run the observability overhead section\n\
    \  throughput          run the wall-clock sustained-throughput profile\n\
    \  scale               with throughput: rerun C1 with k = 500\n\
    \                      partitions (minutes of wall time)\n\
    \  <experiment id>     run only the named experiments\n"
    (String.concat "|" known_ids);
  exit 2

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
    usage known_ids
  end;
  let quick = List.mem "quick" args in
  let obs = List.mem "obs" args in
  let throughput = List.mem "throughput" args in
  let scale = List.mem "scale" args in
  if scale && not throughput then begin
    prerr_endline "scale applies only with throughput";
    usage known_ids
  end;
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
  (* The default profile carries the quick throughput variant. *)
  if throughput then run_throughput ~quick ~scale
  else if run_all then run_throughput ~quick:true ~scale:false
