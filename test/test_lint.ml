(* vslint fixture tests: every bad fixture trips exactly its rule with
   span-accurate findings, every good fixture (including justified
   suppressions) passes clean — plus the determinism regression the linter
   exists to protect: two identically-seeded cluster runs must produce
   byte-identical traces — and the SARIF structure of the committed
   sample. *)

module Lint = Vs_lint.Lint
module Rules = Vs_lint.Rules
module Json = Vs_obs.Json
module Sim = Vs_sim.Sim
module Recorder = Vs_obs.Recorder
module Event = Vs_obs.Event
module Faults = Vs_harness.Faults
module Cluster = Vs_harness.Cluster

let check = Alcotest.check

(* dune runtest runs in _build/default/test; dune exec from the root. *)
let test_file name =
  if Sys.file_exists name then name else Filename.concat "test" name

let fixture name = test_file (Filename.concat "lint_fixtures" name)

(* The source tree from either place: [..] under dune runtest, [.] from the
   root.  Not finding it is a failure, not a pass. *)
let source_root () =
  match
    List.find_opt
      (fun root -> Sys.file_exists (Filename.concat root "lib/net/net.ml"))
      [ ".."; "." ]
  with
  | Some root -> root
  | None -> Alcotest.fail "source tree not found from the working directory"

let finding_rules (r : Lint.report) =
  List.map (fun (f : Lint.finding) -> f.Lint.rule.Rules.id) r.Lint.findings

let finding_lines (r : Lint.report) =
  List.map (fun (f : Lint.finding) -> f.Lint.line) r.Lint.findings

(* ---------- bad fixtures: exactly their own rule, at the right lines ---------- *)

let test_bad ~file ~rules ~lines () =
  let r = Lint.lint_file (fixture file) in
  check (Alcotest.list Alcotest.string) (file ^ ": rules") rules
    (finding_rules r);
  check (Alcotest.list Alcotest.int) (file ^ ": lines") lines (finding_lines r);
  check Alcotest.int (file ^ ": nothing suppressed") 0
    (List.length r.Lint.suppressed)

let test_d5_bad_cols () =
  (* Span accuracy down to the column, on the D5 fixture. *)
  let r = Lint.lint_file (fixture "d5_bad.ml") in
  check (Alcotest.list Alcotest.int) "d5 columns" [ 32; 18 ]
    (List.map (fun (f : Lint.finding) -> f.Lint.col) r.Lint.findings)

(* ---------- good fixtures: clean ---------- *)

let test_good ~file () =
  let r = Lint.lint_file (fixture file) in
  check (Alcotest.list Alcotest.string) (file ^ ": clean") [] (finding_rules r)

let test_suppressed_fixture () =
  let r = Lint.lint_file (fixture "d2_suppressed.ml") in
  check (Alcotest.list Alcotest.string) "no findings" [] (finding_rules r);
  check (Alcotest.list Alcotest.string) "one justified suppression" [ "D2" ]
    (List.map
       (fun (f : Lint.finding) -> f.Lint.rule.Rules.id)
       r.Lint.suppressed)

(* ---------- suppression semantics on inline sources ---------- *)

(* Assembled so vslint never reads this file's own text as a suppression. *)
let allow_comment id just = "(* vs" ^ "lint: allow " ^ id ^ " " ^ just ^ " *)"

let test_wrong_rule_does_not_suppress () =
  let source =
    allow_comment "D3" "— justified, but for another rule"
    ^ "\nlet keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []\n"
  in
  let r = Lint.lint_source ~path:"inline.ml" source in
  check (Alcotest.list Alcotest.string) "D2 still reported" [ "D2" ]
    (finding_rules r)

let test_same_line_suppression () =
  let source =
    "let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] "
    ^ allow_comment "D2" "— commutative enough for a test"
    ^ "\n"
  in
  let r = Lint.lint_source ~path:"inline.ml" source in
  check (Alcotest.list Alcotest.string) "suppressed" [] (finding_rules r);
  check Alcotest.int "recorded" 1 (List.length r.Lint.suppressed)

let test_d1_exemptions () =
  let source = "let jitter () = Random.float 0.5\n" in
  let hit = Lint.lint_source ~path:"lib/vsync/endpoint.ml" source in
  check (Alcotest.list Alcotest.string) "protocol code: D1" [ "D1" ]
    (finding_rules hit);
  let sim = Lint.lint_source ~path:"lib/sim/sim.ml" source in
  check (Alcotest.list Alcotest.string) "lib/sim is exempt" []
    (finding_rules sim);
  let rng = Lint.lint_source ~path:"lib/util/rng.ml" source in
  check (Alcotest.list Alcotest.string) "util/rng.ml is exempt" []
    (finding_rules rng)

let test_unparseable_source () =
  let r = Lint.lint_source ~path:"broken.ml" "let let let = = =\n" in
  check (Alcotest.list Alcotest.string) "parse failure reported" [ "P1" ]
    (finding_rules r)

(* ---------- the regression vslint protects: seed -> one run ---------- *)

let rendered_trace seed =
  let nodes = [ 0; 1; 2; 3 ] in
  let c = Cluster.vsync ~seed ~n:(List.length nodes) () in
  let rng = Vs_util.Rng.create (Int64.add seed 999L) in
  let script =
    Faults.random_script rng ~nodes ~start:1.0 ~duration:3.0 ~mean_gap:0.5 ()
  in
  Cluster.run_script c script;
  Cluster.pump_traffic c ~start:0.5 ~until:3.5 ~mean_gap:0.05;
  Cluster.run c ~until:6.0;
  String.concat "\n"
    (List.map
       (fun (e : Recorder.entry) ->
         Printf.sprintf "[%10.4f] %-8s %s" e.time (Event.component e.event)
           (Event.render e.event))
       (Recorder.entries (Sim.obs (Cluster.sim c))))

let test_identical_seed_identical_trace () =
  let a = rendered_trace 11L and b = rendered_trace 11L in
  check Alcotest.bool "trace is non-trivial" true (String.length a > 1000);
  check Alcotest.string "byte-identical traces" a b

(* ---------- whole-program passes: C1 / A1 / S2 / B1 ---------- *)

module Whole = Vs_lint.Whole

(* Fixtures are *played* at tree-relevant paths: the protected-directory
   logic keys on the path, so the same fixture file can stand in for
   protocol code (lib/vsync/...) or a helper (lib/util/...). *)
let played files =
  List.map
    (fun (as_path, name) -> (as_path, Lint.read_file (fixture name)))
    files

let by_rule id (r : Whole.report) =
  List.filter
    (fun (f : Lint.finding) -> String.equal f.Lint.rule.Rules.id id)
    r.Whole.findings

let rendered (fs : Lint.finding list) =
  List.map
    (fun (f : Lint.finding) ->
      Printf.sprintf "%s:%d:%d:%s: %s" f.Lint.file f.Lint.line f.Lint.col
        f.Lint.rule.Rules.id f.Lint.message)
    fs

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let check_contains what sub s =
  check Alcotest.bool
    (Printf.sprintf "%s mentions %S (got %S)" what sub s)
    true (contains ~sub s)

(* The annotation marker, assembled so this file never registers it. *)
let alloc_free_marker = "(* vs" ^ "lint: alloc-free *)"

let test_c1_two_hop_chain () =
  let r =
    Whole.analyze
      ~files:
        (played
           [
             ("lib/util/c1_util.ml", "c1_util.ml");
             ("lib/vsync/c1_bad.ml", "c1_bad.ml");
           ])
      ()
  in
  match by_rule "C1" r with
  | [ f ] ->
      (* [relay] also inherits the effect but through the already-flagged
         [decide], so only the crossing is reported. *)
      check Alcotest.string "file" "lib/vsync/c1_bad.ml" f.Lint.file;
      check Alcotest.int "line (decide)" 5 f.Lint.line;
      check Alcotest.int "col (decide)" 4 f.Lint.col;
      check_contains "C1 message" "Ambient_time" f.Lint.message;
      check_contains "C1 chain hop 1" "c1_util.ml:stamp" f.Lint.message;
      check_contains "C1 chain hop 2" "c1_util.ml:raw_now" f.Lint.message;
      check_contains "C1 chain leaf" "Unix.gettimeofday" f.Lint.message
  | fs ->
      Alcotest.failf "expected exactly one C1 finding, got %d: %s"
        (List.length fs)
        (String.concat " | " (rendered fs))

let test_c1_capability_mask () =
  let r =
    Whole.analyze
      ~files:
        (played
           [
             ("lib/sim/c1_sim.ml", "c1_sim.ml");
             ("lib/vsync/c1_good.ml", "c1_good.ml");
           ])
      ()
  in
  check (Alcotest.list Alcotest.string)
    "capability route certifies clean (no findings at all)" []
    (rendered r.Whole.findings)

let test_a1_bad_fixture () =
  let path = fixture "a1_bad.ml" in
  let r = Whole.analyze ~files:[ (path, Lint.read_file path) ] () in
  let a1 = by_rule "A1" r in
  check (Alcotest.list Alcotest.string) "only A1 fires"
    [ "A1"; "A1"; "A1" ]
    (List.map (fun (f : Lint.finding) -> f.Lint.rule.Rules.id)
       r.Whole.findings);
  check (Alcotest.list Alcotest.int) "allocating sites" [ 5; 8; 13 ]
    (List.map (fun (f : Lint.finding) -> f.Lint.line) a1);
  (match a1 with
  | [ tuple; closure; call ] ->
      check_contains "tuple finding" "tuple construction" tuple.Lint.message;
      check_contains "closure finding" "closure" closure.Lint.message;
      check_contains "interprocedural finding" "make_pair" call.Lint.message
  | _ -> Alcotest.fail "expected three A1 findings")

let test_a1_good_fixture () =
  let path = fixture "a1_good.ml" in
  let r = Whole.analyze ~files:[ (path, Lint.read_file path) ] () in
  check (Alcotest.list Alcotest.string) "annotated clean functions pass" []
    (rendered r.Whole.findings)

let test_a1_orphan_annotation () =
  let source = alloc_free_marker ^ "\n\nlet later = 1\n" in
  let r = Whole.analyze ~files:[ ("orphan.ml", source) ] () in
  match r.Whole.findings with
  | [ f ] ->
      check Alcotest.string "rule" "A1" f.Lint.rule.Rules.id;
      check Alcotest.int "line" 1 f.Lint.line;
      check_contains "orphan message" "does not precede" f.Lint.message
  | fs ->
      Alcotest.failf "expected one orphan-annotation finding, got %s"
        (String.concat " | " (rendered fs))

let test_s2_stale () =
  let path = fixture "s2_bad.ml" in
  let r = Whole.analyze ~files:[ (path, Lint.read_file path) ] () in
  match r.Whole.findings with
  | [ f ] ->
      check Alcotest.string "rule" "S2" f.Lint.rule.Rules.id;
      check Alcotest.int "line of the stale allow" 6 f.Lint.line;
      check_contains "names the allowed rule" "allow D2" f.Lint.message
  | fs ->
      Alcotest.failf "expected one S2 finding, got %s"
        (String.concat " | " (rendered fs))

let test_s2_live () =
  let path = fixture "s2_good.ml" in
  let r = Whole.analyze ~files:[ (path, Lint.read_file path) ] () in
  check (Alcotest.list Alcotest.string) "live allow: no findings" []
    (rendered r.Whole.findings);
  check (Alcotest.list Alcotest.string) "the D2 stays suppressed" [ "D2" ]
    (List.map
       (fun (f : Lint.finding) -> f.Lint.rule.Rules.id)
       r.Whole.suppressed)

let test_b1_contract () =
  let bad =
    "let zero_alloc_contract = [ \"fake_net.ml:guard\" ]\n\nlet guard t = t\n"
  in
  let r = Whole.analyze ~files:[ ("fake_net.ml", bad) ] () in
  (match r.Whole.findings with
  | [ f ] ->
      check Alcotest.string "rule" "B1" f.Lint.rule.Rules.id;
      check Alcotest.int "line of the contract" 1 f.Lint.line;
      check_contains "names the entry" "fake_net.ml:guard" f.Lint.message
  | fs ->
      Alcotest.failf "expected one B1 finding, got %s"
        (String.concat " | " (rendered fs)));
  let good =
    alloc_free_marker
    ^ "\nlet guard t = t\n\nlet zero_alloc_contract = [ \"fake_net.ml:guard\" \
       ]\n"
  in
  let r = Whole.analyze ~files:[ ("fake_net.ml", good) ] () in
  check (Alcotest.list Alcotest.string) "annotated entry satisfies B1" []
    (rendered r.Whole.findings)

let whole_fixture_set () =
  played
    [
      ("lib/util/c1_util.ml", "c1_util.ml");
      ("lib/vsync/c1_bad.ml", "c1_bad.ml");
      ("lib/sim/c1_sim.ml", "c1_sim.ml");
      ("lib/vsync/c1_good.ml", "c1_good.ml");
      ("lib/net/a1_bad.ml", "a1_bad.ml");
      ("lib/net/a1_good.ml", "a1_good.ml");
      ("bin/s2_bad.ml", "s2_bad.ml");
      ("bin/s2_good.ml", "s2_good.ml");
    ]

let test_whole_determinism () =
  let run () =
    let r = Whole.analyze ~files:(whole_fixture_set ()) () in
    (rendered r.Whole.findings, rendered r.Whole.suppressed, r.Whole.chains)
  in
  let f1, s1, c1 = run () and f2, s2, c2 = run () in
  check Alcotest.bool "found something" true (f1 <> []);
  check (Alcotest.list Alcotest.string) "identical findings" f1 f2;
  check (Alcotest.list Alcotest.string) "identical suppressions" s1 s2;
  check (Alcotest.list Alcotest.string) "identical chains" c1 c2

(* The acceptance bar for the tree itself: the whole-program pass reports
   nothing on the real sources, and the zero-alloc contract is present
   and printed by the bench.  dune copies the sources next to the test
   dir, so under dune runtest this runs against ../lib et al. *)
let test_real_tree_certified () =
  let in_tree = Filename.concat (source_root ()) in
  let r = Whole.analyze_paths (List.map in_tree [ "lib"; "bin"; "bench" ]) in
  check (Alcotest.list Alcotest.string) "real tree certifies clean" []
    (rendered r.Whole.findings);
  let src = Lint.read_file (in_tree "lib/net/net.ml") in
  check Alcotest.bool "net.ml publishes the contract" true
    (contains ~sub:"zero_alloc_contract" src);
  check Alcotest.bool "contract covers the send meters" true
    (contains ~sub:":meter_send" src);
  check Alcotest.bool "bench prints the contract it measures" true
    (contains ~sub:"zero_alloc_contract"
       (Lint.read_file (in_tree "bench/main.ml")))

(* ---------- the committed SARIF sample (golden.exe sarif) ---------- *)

exception Malformed of string

(* Problems with a SARIF log: version 2.1.0, exactly one run whose driver is
   vslint with the rule table of Rules.all, and every result naming a known
   rule at one location with a 1-based line and column. *)
let sarif_problems text =
  let field name j =
    match Json.member name j with
    | Some v -> v
    | None -> raise (Malformed ("missing field " ^ name))
  in
  let typed conv name j =
    match conv (field name j) with
    | Some v -> v
    | None -> raise (Malformed (name ^ " has the wrong type"))
  in
  let str = typed Json.to_string_opt and arr = typed Json.to_list_opt in
  let expect ok msg = if ok then [] else [ msg ] in
  let rule r =
    List.iter
      (fun d -> ignore (str "text" (field d r)))
      [ "shortDescription"; "fullDescription"; "help" ];
    let level = str "level" (field "defaultConfiguration" r) in
    expect (level = "error" || level = "warning") ("bad level " ^ level)
  in
  let result r =
    let id = str "ruleId" r in
    ignore (str "text" (field "message" r));
    match arr "locations" r with
    | [ loc ] ->
        let phys = field "physicalLocation" loc in
        ignore (str "uri" (field "artifactLocation" phys));
        let region = field "region" phys in
        expect (Rules.find id <> None) ("unknown rule " ^ id)
        @ List.concat_map
            (fun pos ->
              expect (typed Json.to_int_opt pos region >= 1)
                (id ^ ": " ^ pos ^ " is not 1-based"))
            [ "startLine"; "startColumn" ]
    | _ -> [ id ^ ": not exactly one location" ]
  in
  match Json.of_string text with
  | Error e -> [ "not JSON: " ^ e ]
  | Ok log -> (
      try
        match arr "runs" log with
        | [ run ] ->
            let driver = field "driver" (field "tool" run) in
            let rules = arr "rules" driver in
            expect (str "version" log = "2.1.0") "version is not 2.1.0"
            @ expect (str "name" driver = "vslint") "driver is not vslint"
            @ expect
                (List.map (str "id") rules
                = List.map (fun (r : Rules.t) -> r.Rules.id) Rules.all)
                "rule table is not Rules.all"
            @ List.concat_map rule rules
            @ List.concat_map result (arr "results" run)
        | _ -> [ "not exactly one run" ]
      with Malformed msg -> [ msg ])

(* [s] with its first [sub] replaced by [by]. *)
let replace_first ~sub ~by s =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then s
    else if String.sub s i n = sub then
      String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
    else go (i + 1)
  in
  go 0

let test_sarif_sample () =
  let sample = Lint.read_file (test_file "sarif_sample.sarif") in
  check (Alcotest.list Alcotest.string) "committed sample" []
    (sarif_problems sample);
  let mutated = replace_first ~sub:{|"2.1.0"|} ~by:{|"2.0.0"|} sample in
  check Alcotest.bool "sample claiming version 2.0.0" true
    (mutated <> sample && sarif_problems mutated <> [])

let () =
  Alcotest.run "vs_lint"
    [
      ( "bad fixtures",
        [
          Alcotest.test_case "d1_bad" `Quick
            (test_bad ~file:"d1_bad.ml" ~rules:[ "D1"; "D1" ] ~lines:[ 2; 3 ]);
          Alcotest.test_case "d2_bad" `Quick
            (test_bad ~file:"d2_bad.ml" ~rules:[ "D2"; "D2"; "D2"; "D2" ]
               ~lines:[ 2; 3; 5; 6 ]);
          Alcotest.test_case "d3_bad" `Quick
            (test_bad ~file:"d3_bad.ml"
               ~rules:[ "D3"; "D3"; "D3"; "D3"; "D3" ]
               ~lines:[ 2; 3; 4; 5; 6 ]);
          Alcotest.test_case "d4_bad" `Quick
            (test_bad ~file:"d4_bad.ml" ~rules:[ "D4"; "D4" ] ~lines:[ 2; 3 ]);
          Alcotest.test_case "d5_bad" `Quick
            (test_bad ~file:"d5_bad.ml" ~rules:[ "D5"; "D5" ] ~lines:[ 2; 3 ]);
          Alcotest.test_case "d5_bad columns" `Quick test_d5_bad_cols;
          Alcotest.test_case "s1_bad" `Quick
            (test_bad ~file:"s1_bad.ml" ~rules:[ "S1"; "D2" ] ~lines:[ 4; 5 ]);
        ] );
      ( "good fixtures",
        [
          Alcotest.test_case "d1_good" `Quick (test_good ~file:"d1_good.ml");
          Alcotest.test_case "d2_good" `Quick (test_good ~file:"d2_good.ml");
          Alcotest.test_case "d3_good" `Quick (test_good ~file:"d3_good.ml");
          Alcotest.test_case "d4_good" `Quick (test_good ~file:"d4_good.ml");
          Alcotest.test_case "d5_good" `Quick (test_good ~file:"d5_good.ml");
          Alcotest.test_case "d2_suppressed" `Quick test_suppressed_fixture;
        ] );
      ( "suppressions",
        [
          Alcotest.test_case "wrong rule does not suppress" `Quick
            test_wrong_rule_does_not_suppress;
          Alcotest.test_case "same-line suppression" `Quick
            test_same_line_suppression;
          Alcotest.test_case "d1 exemptions" `Quick test_d1_exemptions;
          Alcotest.test_case "unparseable source" `Quick test_unparseable_source;
        ] );
      ( "whole-program",
        [
          Alcotest.test_case "C1 two-hop laundering chain" `Quick
            test_c1_two_hop_chain;
          Alcotest.test_case "C1 capability mask" `Quick
            test_c1_capability_mask;
          Alcotest.test_case "A1 bad fixture" `Quick test_a1_bad_fixture;
          Alcotest.test_case "A1 good fixture" `Quick test_a1_good_fixture;
          Alcotest.test_case "A1 orphan annotation" `Quick
            test_a1_orphan_annotation;
          Alcotest.test_case "S2 stale allow" `Quick test_s2_stale;
          Alcotest.test_case "S2 live allow" `Quick test_s2_live;
          Alcotest.test_case "B1 contract coverage" `Quick test_b1_contract;
          Alcotest.test_case "identical findings across two runs" `Quick
            test_whole_determinism;
          Alcotest.test_case "real tree certifies clean" `Quick
            test_real_tree_certified;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "identical seed, identical trace" `Quick
            test_identical_seed_identical_trace;
        ] );
      ( "sarif",
        [ Alcotest.test_case "committed sample" `Quick test_sarif_sample ] );
    ]
