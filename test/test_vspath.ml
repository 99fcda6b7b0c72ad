(* vspath tests: the causal DAG's structural invariants under loss,
   duplication and batching; the critical-path decomposition's exact
   telescoping to view.install-latency and its agreement with the Stall
   attribution; byte-determinism of the folded-stack and diff-runs
   renderings; the multi-sink recorder regression; and the clean-vs-corrupt
   rundiff fixture that must name the corrupted field. *)

module Event = Vs_obs.Event
module Recorder = Vs_obs.Recorder
module Series = Vs_obs.Series
module Stall = Vs_obs.Stall
module Causal = Vs_obs.Causal
module Critpath = Vs_obs.Critpath
module Flame = Vs_obs.Flame
module Rundiff = Vs_obs.Rundiff
module Json = Vs_obs.Json
module Campaign = Vs_check.Campaign
module Repro = Vs_check.Repro

(* One Full-level recording of a seed-derived campaign: the generator
   randomizes loss, duplication and delay jitter per seed, so sweeping a
   seed list sweeps the fault space the DAG invariants must hold under. *)
let record ?(nodes = 4) ~seed () =
  let recorder = Recorder.create ~level:Recorder.Full () in
  let spec = Campaign.generate ~seed ~nodes ~quick:true () in
  let (_ : Campaign.outcome) = Campaign.run ~obs:recorder spec in
  Recorder.entries recorder

let seeds = [ 1; 2; 3; 5; 8; 13 ]

(* --- recorder multi-sink (satellite: removable sink handles) ------------- *)

let note n = Event.Note { component = "test"; message = string_of_int n }

let test_two_live_sinks () =
  let recorder = Recorder.create ~level:Recorder.Full () in
  let s = Series.create () in
  let c = Causal.collector () in
  let h_series = Recorder.add_sink recorder (Series.observe s) in
  ignore (Recorder.add_sink recorder (Causal.observe c) : Recorder.sink_handle);
  let spec = Campaign.generate ~seed:11 ~nodes:3 ~quick:true () in
  let (_ : Campaign.outcome) = Campaign.run ~obs:recorder spec in
  let entries = Recorder.entries recorder in
  let collected = Causal.collector_entries c in
  Alcotest.(check bool) "recording is non-trivial" true
    (List.length entries > 100);
  Alcotest.(check int) "collector saw every recorded event"
    (List.length entries) (List.length collected);
  Alcotest.(check bool) "collector stream identical to the recorder's" true
    (List.for_all2
       (fun (a : Recorder.entry) (b : Recorder.entry) ->
         a.Recorder.time = b.Recorder.time
         && String.equal
              (Event.render a.Recorder.event)
              (Event.render b.Recorder.event))
       entries collected);
  (* the series sink was live on the same emissions *)
  Series.finish s ~now:10.;
  Alcotest.(check bool) "series sink observed the run too" true
    (String.length (Json.to_string (Series.to_json s)) > 2);
  (* removing one sink detaches exactly that handle *)
  let before = List.length (Causal.collector_entries c) in
  Recorder.remove_sink recorder h_series;
  Recorder.emit recorder ~time:999. (note 1);
  Alcotest.(check int) "surviving sink still notified" (before + 1)
    (List.length (Causal.collector_entries c))

let test_remove_sink_is_exact () =
  let recorder = Recorder.create ~level:Recorder.Full () in
  let n1 = ref 0 and n2 = ref 0 in
  let h1 = Recorder.add_sink recorder (fun ~time:_ _ -> incr n1) in
  ignore
    (Recorder.add_sink recorder (fun ~time:_ _ -> incr n2)
      : Recorder.sink_handle);
  Recorder.emit recorder ~time:1. (note 1);
  Recorder.emit recorder ~time:2. (note 2);
  Recorder.emit recorder ~time:3. (note 3);
  Recorder.remove_sink recorder h1;
  Recorder.emit recorder ~time:4. (note 4);
  Recorder.emit recorder ~time:5. (note 5);
  (* removing twice (or removing a dead handle) is a no-op, not an error *)
  Recorder.remove_sink recorder h1;
  Recorder.emit recorder ~time:6. (note 6);
  Alcotest.(check int) "removed sink saw only the first three" 3 !n1;
  Alcotest.(check int) "surviving sink saw everything" 6 !n2;
  Alcotest.(check int) "recorder itself kept recording" 6
    (Recorder.count recorder)

(* --- DAG structural invariants (satellite: property sweep) --------------- *)

let test_dag_invariants () =
  List.iter
    (fun seed ->
      let entries = record ~seed () in
      let dag = Causal.of_entries entries in
      let st = Causal.stats dag in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: node per entry" seed)
        (List.length entries) st.Causal.c_nodes;
      (match Causal.validate dag with
      | Ok () -> ()
      | Error msg ->
          Alcotest.failf "seed %d: DAG validation failed: %s" seed msg);
      Alcotest.(check int)
        (Printf.sprintf "seed %d: no orphan recvs" seed)
        0 st.Causal.c_orphan_recvs;
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d: orphan list empty" seed)
        [] (Causal.orphans dag);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: message edges exist" seed)
        true
        (st.Causal.c_message_edges > 0))
    seeds

(* --- critical-path decomposition (satellite: sums and Stall agreement) --- *)

let test_critpath_sums_to_install_latency () =
  List.iter
    (fun seed ->
      let entries = record ~seed () in
      let cp = Critpath.of_entries entries in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: installs decomposed" seed)
        true
        (cp.Critpath.installs <> []);
      List.iter
        (fun ip ->
          let sum = Critpath.path_sum ip in
          if
            not
              (Critpath.close ~tol:Critpath.default_tol sum
                 (Critpath.latency ip))
          then
            Alcotest.failf
              "seed %d: segments sum to %.12f but install latency is %.12f"
              seed sum (Critpath.latency ip);
          (* segments tile the window chronologically: each begins where
             the previous ended *)
          ignore
            (List.fold_left
               (fun frontier (s : Critpath.segment) ->
                 if not (Critpath.close ~tol:Critpath.default_tol
                           s.Critpath.s_from frontier)
                 then
                   Alcotest.failf "seed %d: segment gap at %.12f" seed
                     s.Critpath.s_from;
                 s.Critpath.s_until)
               ip.Critpath.ip_attr.Stall.a_proposed
               ip.Critpath.ip_segments
              : float))
        cp.Critpath.installs)
    seeds

let test_critpath_agrees_with_stall () =
  List.iter
    (fun seed ->
      let entries = record ~seed () in
      let cp = Critpath.of_entries entries in
      let attrs = Stall.of_entries entries in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: one path per stall attribution" seed)
        (List.length attrs)
        (List.length cp.Critpath.installs);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: paths carry Stall's attributions" seed)
        true
        (List.map (fun ip -> ip.Critpath.ip_attr) cp.Critpath.installs = attrs);
      Alcotest.(check bool)
        (Printf.sprintf
           "seed %d: flush/stability components agree with Stall" seed)
        true
        (Critpath.consistent_with_stall cp attrs))
    seeds

(* The harness plumbs the same verdict into its outcome — but only for
   Full-level recordings; a Protocol-level run must not pay for the DAG. *)
let test_outcome_straggler_plumbing () =
  let spec = Campaign.generate ~seed:3 ~nodes:4 ~quick:true () in
  let full = Recorder.create ~level:Recorder.Full () in
  let outcome = Campaign.run ~obs:full spec in
  let cp = Critpath.of_entries (Recorder.entries full) in
  let expect =
    Option.map
      (fun (p, c) -> (Event.proc_to_string p, c))
      cp.Critpath.straggler
  in
  Alcotest.(check (option (pair string (float 1e-12))))
    "outcome straggler is the critpath verdict" expect outcome.Campaign.straggler;
  Alcotest.(check bool) "full-level run has a verdict" true (expect <> None);
  let proto = Recorder.create ~level:Recorder.Protocol () in
  let outcome_p = Campaign.run ~obs:proto spec in
  Alcotest.(check (option (pair string (float 0.))))
    "protocol-level run skips the verdict" None outcome_p.Campaign.straggler

(* --- byte-determinism (satellite: folded stacks and diff-runs) ----------- *)

let test_folded_deterministic () =
  let one () = Flame.folded (Critpath.of_entries (record ~seed:3 ())) in
  let a = one () and b = one () in
  Alcotest.(check bool) "folded output non-empty" true (String.length a > 0);
  Alcotest.(check string) "folded stacks byte-identical" a b

let test_diff_runs_deterministic () =
  let diff () =
    let a = record ~seed:5 () and b = record ~seed:5 () in
    Rundiff.diff ~a ~b
  in
  let d = diff () in
  (match d.Rundiff.d_divergence with
  | None -> ()
  | Some dv ->
      Alcotest.failf "identically-seeded runs diverged at event %d"
        dv.Rundiff.dv_index);
  Alcotest.(check int) "no ops only in A" 0 d.Rundiff.d_ops_only_a;
  Alcotest.(check int) "no ops only in B" 0 d.Rundiff.d_ops_only_b;
  Alcotest.(check string) "diff text byte-identical across reruns"
    (Rundiff.to_text d)
    (Rundiff.to_text (diff ()));
  Alcotest.(check string) "diff json byte-identical across reruns"
    (Json.to_string (Rundiff.to_json d))
    (Json.to_string (Rundiff.to_json (diff ())));
  (* different seeds must diverge, and every phase delta must be present *)
  let d2 = Rundiff.diff ~a:(record ~seed:5 ()) ~b:(record ~seed:6 ()) in
  Alcotest.(check bool) "different seeds diverge" true
    (d2.Rundiff.d_divergence <> None);
  Alcotest.(check bool) "phase deltas present" true
    (List.length d2.Rundiff.d_phases >= 10)

(* --- committed samples (golden.exe folded / diff) ------------------------- *)

let seg_kind_names = List.map Critpath.seg_kind_to_string Critpath.all_seg_kinds

let lines_of text = List.filter (( <> ) "") (String.split_on_char '\n' text)

(* Problems with folded stacks: every line is "view;kind;owner <positive
   int>" with a known segment kind, and the lines are strictly sorted. *)
let folded_problems text =
  let line_problems line =
    match String.rindex_opt line ' ' with
    | None -> [ "no value: " ^ line ]
    | Some j ->
        let value = String.sub line (j + 1) (String.length line - j - 1) in
        (match int_of_string_opt value with
        | Some v when v > 0 -> []
        | _ -> [ "value is not a positive integer: " ^ line ])
        @
        match String.split_on_char ';' (String.sub line 0 j) with
        | [ _view; kind; _owner ] when List.mem kind seg_kind_names -> []
        | _ -> [ "not view;kind;owner with a segment kind: " ^ line ]
  in
  let rec unsorted = function
    | a :: (b :: _ as rest) ->
        (if String.compare a b < 0 then [] else [ "not strictly sorted: " ^ b ])
        @ unsorted rest
    | _ -> []
  in
  let lines = lines_of text in
  (if lines = [] then [ "no stacks" ] else [])
  @ List.concat_map line_problems lines
  @ unsorted lines

(* Problems with the diff-runs report of two different seeds: it names the
   first causal divergence and carries the per-phase table with one row
   per install phase and per critical-path segment kind. *)
let diff_problems text =
  let lines = lines_of text in
  let has_line prefix = List.exists (String.starts_with ~prefix) lines in
  List.filter_map
    (fun prefix -> if has_line prefix then None else Some ("no line " ^ prefix))
    ("first causal divergence at event " :: "== per-phase latency deltas"
    :: List.map
         (fun phase -> phase ^ " ")
         ([ "install-latency"; "propose-wait"; "flush-ack-wait"; "stability-wait" ]
         @ List.map (( ^ ) "critpath.") seg_kind_names))

let test_folded_sample () =
  let text =
    In_channel.with_open_bin "critpath_sample.folded" In_channel.input_all
  in
  Alcotest.(check (list string)) "committed sample" [] (folded_problems text);
  match lines_of text with
  | a :: b :: rest ->
      Alcotest.(check bool) "two lines swapped" true
        (folded_problems (String.concat "\n" (b :: a :: rest)) <> [])
  | _ -> Alcotest.fail "sample has fewer than two lines"

let test_diff_sample () =
  let text =
    In_channel.with_open_bin "critpath_sample.diff.txt" In_channel.input_all
  in
  Alcotest.(check (list string)) "committed sample" [] (diff_problems text);
  let rec before_table = function
    | l :: rest when not (String.starts_with ~prefix:"== per-phase" l) ->
        l :: before_table rest
    | _ -> []
  in
  let mutated = String.concat "\n" (before_table (lines_of text)) in
  Alcotest.(check bool) "per-phase table removed" true
    (String.length mutated < String.length text && diff_problems mutated <> [])

(* --- clean vs transient-corruption fixture (satellite 6) ----------------- *)

let load_fixture name =
  match Repro.load (Filename.concat "rundiff_fixtures" name) with
  | Ok spec -> spec
  | Error msg -> Alcotest.failf "fixture %s unreadable: %s" name msg

let test_rundiff_names_corrupted_field () =
  let run spec =
    let recorder = Recorder.create ~level:Recorder.Full () in
    let (_ : Campaign.outcome) = Campaign.run ~obs:recorder spec in
    Recorder.entries recorder
  in
  let clean = run (load_fixture "deps-truncate-clean.sexp") in
  let corrupt = run (load_fixture "deps-truncate-corrupt.sexp") in
  let d = Rundiff.diff ~a:clean ~b:corrupt in
  match d.Rundiff.d_divergence with
  | None -> Alcotest.fail "clean and corrupted runs did not diverge"
  | Some dv ->
      Alcotest.(check (option string))
        "first causal divergence names the corrupted field"
        (Some "stream.next") dv.Rundiff.dv_field;
      let contains sub s =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      (* the corrupted side's event at the divergence is the injection (the
         harness note announcing it, immediately followed by the protocol's
         Corrupt record the field above came from) *)
      (match dv.Rundiff.dv_b with
      | Some sig_b ->
          Alcotest.(check bool) "divergent B event is the injection" true
            (contains "corrupt" sig_b)
      | None -> Alcotest.fail "divergence has no B-side event");
      let text = Rundiff.to_text d in
      Alcotest.(check bool) "text rendering names the field" true
        (contains "corrupted field: stream.next" text)

let () =
  Alcotest.run "vspath"
    [
      ( "recorder-sinks",
        [
          Alcotest.test_case "two live sinks" `Quick test_two_live_sinks;
          Alcotest.test_case "remove is exact" `Quick
            test_remove_sink_is_exact;
        ] );
      ( "causal-dag",
        [ Alcotest.test_case "invariants" `Slow test_dag_invariants ] );
      ( "critical-path",
        [
          Alcotest.test_case "sums to install latency" `Slow
            test_critpath_sums_to_install_latency;
          Alcotest.test_case "agrees with stall" `Slow
            test_critpath_agrees_with_stall;
          Alcotest.test_case "outcome plumbing" `Quick
            test_outcome_straggler_plumbing;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "folded stacks" `Quick test_folded_deterministic;
          Alcotest.test_case "diff-runs" `Quick test_diff_runs_deterministic;
          Alcotest.test_case "folded sample" `Quick test_folded_sample;
          Alcotest.test_case "diff-runs sample" `Quick test_diff_sample;
        ] );
      ( "rundiff-fixture",
        [
          Alcotest.test_case "names corrupted field" `Quick
            test_rundiff_names_corrupted_field;
        ] );
    ]
