(* Tests for the paper's core machinery: enriched-view algebra (Section 6.1),
   the mode machine of Figure 1, the shared-state classifiers (Sections 4 and
   6.2) and process histories (Section 3). *)

module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module E_view = Evs_core.E_view
module Mode = Evs_core.Mode
module Classify = Evs_core.Classify
module History = Evs_core.History

let check = Alcotest.check

let p n = Proc_id.initial n
let vid epoch node = View.Id.make ~epoch ~proposer:(p node)

let assert_valid ev =
  match E_view.validate ev with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid e-view: %s" e

(* Build an e-view from (member, subview-tag, svset-tag, prior) tuples where
   tags are small ints naming fresh identities by representative process. *)
let build_eview view_id members specs =
  let view = View.make view_id members in
  let reports =
    List.map
      (fun (m, sv_rep, ss_rep, prior) ->
        ( m,
          {
            E_view.r_tag =
              Some
                {
                  E_view.m_sv = E_view.Subview_id.Fresh (p sv_rep);
                  m_ss = E_view.Svset_id.Fresh (p ss_rep);
                };
            r_prior = prior;
          } ))
      specs
  in
  E_view.rebuild view reports

(* ---------- E_view ---------- *)

let test_initial () =
  let ev = E_view.initial (p 0) in
  assert_valid ev;
  check Alcotest.bool "degenerate" true (E_view.is_degenerate ev);
  check Alcotest.int "eseq 0" 0 ev.E_view.eseq;
  check Alcotest.int "one subview" 1 (List.length ev.E_view.structure.E_view.subviews)

let test_rebuild_groups_by_tag () =
  let prior = Some (vid 1 0) in
  let ev =
    build_eview (vid 2 0) [ p 0; p 1; p 2; p 3 ]
      [ (p 0, 0, 0, prior); (p 1, 0, 0, prior); (p 2, 2, 0, prior); (p 3, 3, 3, prior) ]
  in
  assert_valid ev;
  check Alcotest.int "three subviews" 3
    (List.length ev.E_view.structure.E_view.subviews);
  check Alcotest.int "two sv-sets" 2
    (List.length ev.E_view.structure.E_view.svsets);
  (* p0 and p1 share their subview; p2 is separate but in the same sv-set. *)
  let sv0 = Option.get (E_view.subview_of (p 0) ev) in
  check
    (Alcotest.list (Alcotest.testable Proc_id.pp Proc_id.equal))
    "p0,p1 together" [ p 0; p 1 ] sv0.E_view.sv_members;
  let ss0 = Option.get (E_view.svset_of_subview sv0.E_view.sv_id ev) in
  check Alcotest.int "sv-set holds two subviews" 2
    (List.length ss0.E_view.ss_subviews);
  check
    (Alcotest.list (Alcotest.testable Proc_id.pp Proc_id.equal))
    "sv-set members" [ p 0; p 1; p 2 ]
    (E_view.svset_members ss0 ev)

let test_rebuild_fresh_members () =
  let view = View.make (vid 1 0) [ p 0; p 1 ] in
  let ev =
    E_view.rebuild view
      [ (p 0, { E_view.r_tag = None; r_prior = None }) ]
    (* p1 entirely unreported *)
  in
  assert_valid ev;
  check Alcotest.int "two singleton subviews" 2
    (List.length ev.E_view.structure.E_view.subviews);
  check Alcotest.int "two singleton sv-sets" 2
    (List.length ev.E_view.structure.E_view.svsets)

let test_rebuild_splits_stay_apart () =
  (* Both fragments report the same subview identity but from different
     prior views (a healed partition): they must not be re-merged. *)
  let ev =
    build_eview (vid 5 0) [ p 0; p 1; p 2; p 3 ]
      [
        (p 0, 0, 0, Some (vid 3 0));
        (p 1, 0, 0, Some (vid 3 0));
        (p 2, 0, 0, Some (vid 4 2));
        (p 3, 0, 0, Some (vid 4 2));
      ]
  in
  assert_valid ev;
  check Alcotest.int "fragments stay distinct subviews" 2
    (List.length ev.E_view.structure.E_view.subviews);
  check Alcotest.int "fragments stay distinct sv-sets" 2
    (List.length ev.E_view.structure.E_view.svsets);
  check Alcotest.bool "p0,p1 still together" true
    (Proc_id.equal (p 1)
       (List.nth (Option.get (E_view.subview_of (p 0) ev)).E_view.sv_members 1))

let test_svset_merge () =
  let prior = Some (vid 1 0) in
  let ev =
    build_eview (vid 2 0) [ p 0; p 1; p 2 ]
      [ (p 0, 0, 0, prior); (p 1, 1, 1, prior); (p 2, 2, 2, prior) ]
  in
  let ids = E_view.svset_ids ev in
  match E_view.apply_svset_merge ev ids with
  | Error `No_effect -> Alcotest.fail "merge should apply"
  | Ok (ev', new_id) ->
      assert_valid ev';
      check Alcotest.int "one sv-set" 1 (List.length ev'.E_view.structure.E_view.svsets);
      check Alcotest.int "subviews untouched" 3
        (List.length ev'.E_view.structure.E_view.subviews);
      check Alcotest.int "eseq bumped" 1 ev'.E_view.eseq;
      check Alcotest.bool "new id is Merged" true
        (match new_id with E_view.Svset_id.Merged _ -> true | _ -> false)

let test_subview_merge_same_svset () =
  let prior = Some (vid 1 0) in
  let ev =
    build_eview (vid 2 0) [ p 0; p 1; p 2 ]
      [ (p 0, 0, 0, prior); (p 1, 1, 0, prior); (p 2, 2, 2, prior) ]
  in
  let sv_of x = (Option.get (E_view.subview_of x ev)).E_view.sv_id in
  (match E_view.apply_subview_merge ev [ sv_of (p 0); sv_of (p 1) ] with
  | Error `No_effect -> Alcotest.fail "same-sv-set merge should apply"
  | Ok (ev', _) ->
      assert_valid ev';
      check Alcotest.int "two subviews left" 2
        (List.length ev'.E_view.structure.E_view.subviews);
      let merged = Option.get (E_view.subview_of (p 0) ev') in
      check
        (Alcotest.list (Alcotest.testable Proc_id.pp Proc_id.equal))
        "merged membership" [ p 0; p 1 ] merged.E_view.sv_members);
  (* Across sv-sets: the call has no effect (Section 6.1). *)
  match E_view.apply_subview_merge ev [ sv_of (p 0); sv_of (p 2) ] with
  | Error `No_effect -> ()
  | Ok _ -> Alcotest.fail "cross-sv-set merge must be refused"

let test_merge_with_vanished_ids () =
  let prior = Some (vid 1 0) in
  let ev =
    build_eview (vid 2 0) [ p 0; p 1 ]
      [ (p 0, 0, 0, prior); (p 1, 1, 1, prior) ]
  in
  let ghost = E_view.Svset_id.Fresh (p 9) in
  (* Only one real id among the arguments: no effect. *)
  (match E_view.apply_svset_merge ev [ ghost; E_view.Svset_id.Fresh (p 0) ] with
  | Error `No_effect -> ()
  | Ok _ -> Alcotest.fail "merge with one live id must be refused");
  (* Two real ids plus a ghost: applies to the survivors. *)
  match
    E_view.apply_svset_merge ev
      [ ghost; E_view.Svset_id.Fresh (p 0); E_view.Svset_id.Fresh (p 1) ]
  with
  | Ok (ev', _) ->
      assert_valid ev';
      check Alcotest.int "merged down to one" 1
        (List.length ev'.E_view.structure.E_view.svsets)
  | Error `No_effect -> Alcotest.fail "merge of two live ids must apply"

let test_rebuild_from_snapshots () =
  (* Three members of one prior view; p2's snapshot is stale (it flushed
     before a SubviewMerge reached it): the freshest snapshot must place
     everyone, keeping the merged pair together. *)
  let prior = vid 3 0 in
  let common = Some (vid 2 0) in
  let stale =
    build_eview prior [ p 0; p 1; p 2 ]
      [ (p 0, 0, 0, common); (p 1, 1, 0, common); (p 2, 2, 0, common) ]
  in
  let fresh =
    (* After the merge of p0's and p1's subviews. *)
    match
      E_view.apply_subview_merge stale
        [ E_view.Subview_id.Fresh (p 0); E_view.Subview_id.Fresh (p 1) ]
    with
    | Ok (ev, _) -> ev
    | Error `No_effect -> Alcotest.fail "setup merge failed"
  in
  let new_view = View.make (vid 4 0) [ p 0; p 1; p 2 ] in
  let raw =
    [
      (p 0, { E_view.sr_snapshot = Some fresh; sr_prior = Some prior });
      (p 1, { E_view.sr_snapshot = Some fresh; sr_prior = Some prior });
      (* p2 reports the pre-merge structure *)
      (p 2, { E_view.sr_snapshot = Some stale; sr_prior = Some prior });
    ]
  in
  let ev = E_view.rebuild_from_snapshots new_view raw in
  assert_valid ev;
  check Alcotest.int "two subviews (merged pair kept)" 2
    (List.length ev.E_view.structure.E_view.subviews);
  let sv0 = Option.get (E_view.subview_of (p 0) ev) in
  check
    (Alcotest.list (Alcotest.testable Proc_id.pp Proc_id.equal))
    "p0,p1 together despite p2's stale report" [ p 0; p 1 ]
    sv0.E_view.sv_members;
  (* The reverse skew — the freshest snapshot arriving from the laggard's
     peer — must place the laggard too. *)
  let raw_reversed =
    [
      (p 0, { E_view.sr_snapshot = Some stale; sr_prior = Some prior });
      (p 1, { E_view.sr_snapshot = Some fresh; sr_prior = Some prior });
      (p 2, { E_view.sr_snapshot = Some stale; sr_prior = Some prior });
    ]
  in
  let ev = E_view.rebuild_from_snapshots new_view raw_reversed in
  assert_valid ev;
  check Alcotest.int "same outcome" 2
    (List.length ev.E_view.structure.E_view.subviews)

let test_rebuild_from_snapshots_fresh_and_missing () =
  let new_view = View.make (vid 4 0) [ p 0; p 1 ] in
  let ev =
    E_view.rebuild_from_snapshots new_view
      [ (p 0, { E_view.sr_snapshot = None; sr_prior = None }) ]
  in
  assert_valid ev;
  check Alcotest.int "fresh singletons" 2
    (List.length ev.E_view.structure.E_view.subviews)

let test_degenerate_detection () =
  let prior = Some (vid 1 0) in
  let ev =
    build_eview (vid 2 0) [ p 0; p 1 ]
      [ (p 0, 0, 0, prior); (p 1, 0, 0, prior) ]
  in
  check Alcotest.bool "single full subview is degenerate" true
    (E_view.is_degenerate ev)

let eview_rebuild_property =
  (* Any assignment of tags and priors rebuilds into a valid structure. *)
  QCheck.Test.make ~name:"rebuild always yields a valid structure" ~count:300
    QCheck.(
      list_of_size (Gen.int_range 1 8)
        (triple (int_bound 7) (int_bound 3) (int_bound 3)))
    (fun specs ->
      let members =
        Vs_util.Listx.sorted_set ~cmp:Proc_id.compare
          (List.map (fun (m, _, _) -> p m) specs)
      in
      let view = View.make (vid 9 0) members in
      let reports =
        List.map
          (fun (m, svt, prior) ->
            ( p m,
              {
                E_view.r_tag =
                  Some
                    {
                      E_view.m_sv = E_view.Subview_id.Fresh (p svt);
                      (* sv-set tag derived from subview tag so reports are
                         internally consistent, as real processes' are *)
                      m_ss = E_view.Svset_id.Fresh (p (svt / 2));
                    };
                r_prior = Some (vid (1 + prior) 0);
              } ))
          specs
      in
      let ev = E_view.rebuild view reports in
      E_view.validate ev = Ok ())

(* ---------- Mode (Figure 1) ---------- *)

let test_figure1_edges () =
  let open Mode in
  let edge_is from into expected =
    check Alcotest.bool
      (Printf.sprintf "%s->%s" (to_string from) (to_string into))
      true
      (match (edge ~from ~into, expected) with
      | Some t, Some t' -> equal_transition t t'
      | None, None -> true
      | _ -> false)
  in
  edge_is Normal Reduced (Some Failure);
  edge_is Normal Settling (Some Reconfigure);
  edge_is Reduced Settling (Some Repair);
  edge_is Settling Reduced (Some Failure);
  edge_is Settling Settling (Some Reconfigure);
  edge_is Settling Normal (Some Reconcile);
  edge_is Reduced Normal None;
  edge_is Normal Normal None;
  edge_is Reduced Reduced None;
  check Alcotest.bool "R->N illegal" false
    (Mode.is_legal ~from:Reduced ~into:Normal);
  check Alcotest.bool "stay legal" true (Mode.is_legal ~from:Normal ~into:Normal)

let test_machine_lifecycle () =
  let m = Mode.Machine.create () in
  check Alcotest.bool "fresh process settles" true
    (Mode.equal (Mode.Machine.mode m) Mode.Settling);
  (* Reconcile into Normal. *)
  (match Mode.Machine.reconcile m with
  | Ok step ->
      check Alcotest.bool "reconcile cause" true
        (step.Mode.Machine.cause = Some Mode.Reconcile)
  | Error `Not_settling -> Alcotest.fail "should reconcile");
  (* Quorum lost: Failure into Reduced. *)
  let step =
    Mode.Machine.on_view_change m ~target:Mode.Serve_reduced ~expanded:false
      ~policy:Mode.On_expansion
  in
  check Alcotest.bool "failure cause" true (step.Mode.Machine.cause = Some Mode.Failure);
  (* Quorum restored: Repair into Settling, never straight to Normal. *)
  let step =
    Mode.Machine.on_view_change m ~target:Mode.Serve_all ~expanded:true
      ~policy:Mode.On_expansion
  in
  check Alcotest.bool "repair cause" true (step.Mode.Machine.cause = Some Mode.Repair);
  check Alcotest.bool "in settling" true
    (Mode.equal (Mode.Machine.mode m) Mode.Settling);
  (* Another change while settling: Reconfigure self-loop. *)
  let step =
    Mode.Machine.on_view_change m ~target:Mode.Serve_all ~expanded:true
      ~policy:Mode.On_expansion
  in
  check Alcotest.bool "reconfigure self-loop" true
    (step.Mode.Machine.cause = Some Mode.Reconfigure);
  (* Reconcile works only from Settling. *)
  ignore (Mode.Machine.reconcile m);
  check Alcotest.bool "double reconcile refused" true
    (Mode.Machine.reconcile m = Error `Not_settling)

let test_machine_policies () =
  (* On_expansion: a pure shrink in Normal mode needs no settling. *)
  let m = Mode.Machine.create ~initial:Mode.Normal () in
  let step =
    Mode.Machine.on_view_change m ~target:Mode.Serve_all ~expanded:false
      ~policy:Mode.On_expansion
  in
  check Alcotest.bool "shrink keeps Normal" true (step.Mode.Machine.cause = None);
  (* On_any_change: even a shrink forces settling (the parallel DB). *)
  let m = Mode.Machine.create ~initial:Mode.Normal () in
  let step =
    Mode.Machine.on_view_change m ~target:Mode.Serve_all ~expanded:false
      ~policy:Mode.On_any_change
  in
  check Alcotest.bool "any change settles" true
    (step.Mode.Machine.cause = Some Mode.Reconfigure);
  (* Never: view changes do not disturb Normal. *)
  let m = Mode.Machine.create ~initial:Mode.Normal () in
  let step =
    Mode.Machine.on_view_change m ~target:Mode.Serve_all ~expanded:true
      ~policy:Mode.Never
  in
  check Alcotest.bool "never policy stays" true (step.Mode.Machine.cause = None)

let test_machine_history_and_counts () =
  let m = Mode.Machine.create () in
  ignore (Mode.Machine.reconcile m);
  ignore
    (Mode.Machine.on_view_change m ~target:Mode.Serve_reduced ~expanded:false
       ~policy:Mode.On_expansion);
  ignore
    (Mode.Machine.on_view_change m ~target:Mode.Serve_all ~expanded:true
       ~policy:Mode.On_expansion);
  ignore (Mode.Machine.reconcile m);
  let counts = Mode.Machine.transition_counts m in
  let count tr = try List.assoc tr counts with Not_found -> 0 in
  check Alcotest.int "reconciles" 2 (count Mode.Reconcile);
  check Alcotest.int "failures" 1 (count Mode.Failure);
  check Alcotest.int "repairs" 1 (count Mode.Repair);
  check Alcotest.int "history length" 4 (List.length (Mode.Machine.history m))

let machine_never_illegal_property =
  (* Whatever sequence of targets/policies arrives, the machine only takes
     Figure-1 edges. *)
  QCheck.Test.make ~name:"machine only takes legal transitions" ~count:300
    QCheck.(small_list (pair bool (pair bool (int_bound 2))))
    (fun ops ->
      let m = Mode.Machine.create () in
      List.iter
        (fun (serve_all, (expanded, policy_ix)) ->
          let target = if serve_all then Mode.Serve_all else Mode.Serve_reduced in
          let policy =
            match policy_ix with
            | 0 -> Mode.On_any_change
            | 1 -> Mode.On_expansion
            | _ -> Mode.Never
          in
          ignore (Mode.Machine.on_view_change m ~target ~expanded ~policy);
          if expanded then ignore (Mode.Machine.reconcile m))
        ops;
      List.for_all
        (fun (step : Mode.Machine.step) ->
          Mode.is_legal ~from:step.Mode.Machine.from_mode
            ~into:step.Mode.Machine.into_mode)
        (Mode.Machine.history m))

(* ---------- Classify ---------- *)

let majority_of n members = List.length members > n / 2

let test_exact_oracle () =
  let prior_of assoc q = List.assoc q assoc in
  (* Transfer: one fresh joiner among normals. *)
  let pr =
    prior_of
      [
        (p 0, (Classify.Was_normal, Some (vid 1 0)));
        (p 1, (Classify.Was_normal, Some (vid 1 0)));
        (p 2, (Classify.Was_fresh, None));
      ]
  in
  let v = Classify.exact ~members:[ p 0; p 1; p 2 ] ~prior:pr in
  check Alcotest.bool "transfer" true v.Classify.transfer;
  check Alcotest.bool "no merging" false v.Classify.merging;
  check Alcotest.int "one cluster" 1 v.Classify.clusters;
  (* Creation rebirth: everyone was reduced. *)
  let pr =
    prior_of
      [
        (p 0, (Classify.Was_reduced, Some (vid 1 0)));
        (p 1, (Classify.Was_fresh, None));
      ]
  in
  let v = Classify.exact ~members:[ p 0; p 1 ] ~prior:pr in
  check Alcotest.bool "creation" true (v.Classify.creation = Classify.Rebirth);
  (* Creation in progress: a settler among them. *)
  let pr =
    prior_of
      [
        (p 0, (Classify.Was_settling, Some (vid 1 0)));
        (p 1, (Classify.Was_fresh, None));
      ]
  in
  let v = Classify.exact ~members:[ p 0; p 1 ] ~prior:pr in
  check Alcotest.bool "in progress" true
    (v.Classify.creation = Classify.In_progress);
  (* Merging with transfer: two normal clusters plus a fresh process. *)
  let pr =
    prior_of
      [
        (p 0, (Classify.Was_normal, Some (vid 2 0)));
        (p 1, (Classify.Was_normal, Some (vid 2 0)));
        (p 2, (Classify.Was_normal, Some (vid 3 2)));
        (p 3, (Classify.Was_fresh, None));
      ]
  in
  let v = Classify.exact ~members:[ p 0; p 1; p 2; p 3 ] ~prior:pr in
  check Alcotest.bool "merging" true v.Classify.merging;
  check Alcotest.bool "and transfer" true v.Classify.transfer;
  check Alcotest.int "two clusters" 2 v.Classify.clusters;
  (* No problem: pure shrink of one normal cluster. *)
  let pr =
    prior_of
      [
        (p 0, (Classify.Was_normal, Some (vid 2 0)));
        (p 1, (Classify.Was_normal, Some (vid 2 0)));
      ]
  in
  let v = Classify.exact ~members:[ p 0; p 1 ] ~prior:pr in
  check Alcotest.bool "no problem" true
    (Classify.shape v = (false, Classify.No_creation, false))

let test_enriched_majority_example () =
  (* The Section 6.2 example: majority condition over a 5-node universe. *)
  let serve = majority_of 5 in
  (* Case (i): the new view contains a majority subview — transfer. *)
  let ev =
    build_eview (vid 4 0) [ p 0; p 1; p 2; p 3 ]
      [
        (p 0, 0, 0, Some (vid 3 0));
        (p 1, 0, 0, Some (vid 3 0));
        (p 2, 0, 0, Some (vid 3 0));
        (p 3, 3, 3, Some (vid 0 3));
      ]
  in
  let v = Classify.enriched ~eview:ev ~would_serve_all:serve () in
  check Alcotest.bool "case i: transfer" true v.Classify.transfer;
  check Alcotest.bool "case i: no creation" true
    (v.Classify.creation = Classify.No_creation);
  (* Case (ii): no majority subview but a majority sv-set — creation was in
     progress. *)
  let ev =
    build_eview (vid 4 0) [ p 0; p 1; p 2 ]
      [
        (p 0, 0, 0, Some (vid 3 0));
        (p 1, 1, 0, Some (vid 3 0));
        (p 2, 2, 0, Some (vid 3 0));
      ]
  in
  let v = Classify.enriched ~eview:ev ~would_serve_all:serve () in
  check Alcotest.bool "case ii: in-progress creation" true
    (v.Classify.creation = Classify.In_progress);
  (* Case (iii): neither — rebirth. *)
  let ev =
    build_eview (vid 4 0) [ p 0; p 1; p 2 ]
      [
        (p 0, 0, 0, Some (vid 3 0));
        (p 1, 1, 1, Some (vid 3 1));
        (p 2, 2, 2, Some (vid 3 2));
      ]
  in
  let v = Classify.enriched ~eview:ev ~would_serve_all:serve () in
  check Alcotest.bool "case iii: rebirth" true
    (v.Classify.creation = Classify.Rebirth)

let test_enriched_merging_and_settled () =
  (* Always-available object: clusters distinguished by the settled flag. *)
  let serve _ = true in
  let ev =
    build_eview (vid 4 0) [ p 0; p 1; p 2; p 3 ]
      [
        (p 0, 0, 0, Some (vid 3 0));
        (p 1, 0, 0, Some (vid 3 0));
        (p 2, 2, 2, Some (vid 3 2));
        (p 3, 3, 3, None);
      ]
  in
  let settled q = not (Proc_id.equal q (p 3)) in
  let v = Classify.enriched ~eview:ev ~would_serve_all:serve ~settled () in
  check Alcotest.int "two clusters (fresh joiner excluded)" 2 v.Classify.clusters;
  check Alcotest.bool "merging" true v.Classify.merging;
  check Alcotest.bool "transfer for the joiner" true v.Classify.transfer

let test_flat_ambiguity () =
  (* The paper's Section 4 example: a process coming from R-mode cannot
     distinguish transfer from creation. *)
  let k =
    {
      Classify.fk_members = [ p 0; p 1; p 2 ];
      fk_me = p 0;
      fk_my_prior = Classify.Was_reduced;
      fk_my_prior_members = [ p 0 ];
    }
  in
  let possibilities = Classify.flat k in
  check Alcotest.bool "ambiguous" true (List.length possibilities > 1);
  let shapes = List.map Classify.shape possibilities in
  check Alcotest.bool "transfer possible" true
    (List.exists (fun (t, _, _) -> t) shapes);
  check Alcotest.bool "creation possible" true
    (List.exists (fun (_, c, _) -> c <> Classify.No_creation) shapes)

let test_flat_exact_cases () =
  (* Shrink seen from Normal: locally classifiable. *)
  let k =
    {
      Classify.fk_members = [ p 0; p 1 ];
      fk_me = p 0;
      fk_my_prior = Classify.Was_normal;
      fk_my_prior_members = [ p 0; p 1; p 2 ];
    }
  in
  check Alcotest.int "singleton verdict" 1 (List.length (Classify.flat k));
  (* Alone after being reduced: rebirth, exactly. *)
  let k =
    {
      Classify.fk_members = [ p 0 ];
      fk_me = p 0;
      fk_my_prior = Classify.Was_reduced;
      fk_my_prior_members = [ p 0 ];
    }
  in
  match Classify.flat k with
  | [ v ] -> check Alcotest.bool "rebirth" true (v.Classify.creation = Classify.Rebirth)
  | other -> Alcotest.failf "expected singleton, got %d" (List.length other)

let test_flat_soundness_vs_oracle () =
  (* On the transfer scenario, the oracle's verdict shape must be among the
     flat possibilities (flat reasoning is sound, just ambiguous). *)
  let members = [ p 0; p 1; p 2 ] in
  let pr q =
    if Proc_id.equal q (p 2) then (Classify.Was_fresh, None)
    else (Classify.Was_normal, Some (vid 1 0))
  in
  let truth = Classify.exact ~members ~prior:pr in
  let k =
    {
      Classify.fk_members = members;
      fk_me = p 0;
      fk_my_prior = Classify.Was_normal;
      fk_my_prior_members = [ p 0; p 1 ];
    }
  in
  let shapes = List.map Classify.shape (Classify.flat k) in
  check Alcotest.bool "oracle shape among possibilities" true
    (List.mem (Classify.shape truth) shapes)

let test_flat_one_at_a_time () =
  (* Under the Isis restriction the classification is exact (Section 5). *)
  let k =
    {
      Classify.fk_members = [ p 0; p 1; p 2 ];
      fk_me = p 2;
      fk_my_prior = Classify.Was_fresh;
      fk_my_prior_members = [ p 2 ];
    }
  in
  (match Classify.flat_one_at_a_time k with
  | [ v ] -> check Alcotest.bool "joiner sees transfer" true v.Classify.transfer
  | other -> Alcotest.failf "expected singleton, got %d" (List.length other));
  let alone =
    {
      Classify.fk_members = [ p 0 ];
      fk_me = p 0;
      fk_my_prior = Classify.Was_fresh;
      fk_my_prior_members = [ p 0 ];
    }
  in
  match Classify.flat_one_at_a_time alone with
  | [ v ] ->
      check Alcotest.bool "alone means creation" true
        (v.Classify.creation = Classify.Rebirth)
  | other -> Alcotest.failf "expected singleton, got %d" (List.length other)

let test_classify_well_formed () =
  (* Every verdict any classifier builds obeys the clusters convention:
     creation verdicts carry clusters = 0 and no other flag, everything else
     clusters >= 1 with merging iff clusters >= 2. *)
  let assert_wf what v =
    check Alcotest.bool
      (Printf.sprintf "%s well-formed: %s" what (Classify.problem_to_string v))
      true (Classify.well_formed v)
  in
  assert_wf "no_problem" Classify.no_problem;
  let pr =
    fun q ->
      List.assoc q
        [
          (p 0, (Classify.Was_normal, Some (vid 2 0)));
          (p 1, (Classify.Was_normal, Some (vid 2 0)));
          (p 2, (Classify.Was_normal, Some (vid 3 2)));
          (p 3, (Classify.Was_fresh, None));
        ]
  in
  assert_wf "exact merge+transfer"
    (Classify.exact ~members:[ p 0; p 1; p 2; p 3 ] ~prior:pr);
  let pr_rebirth =
    fun q ->
      List.assoc q
        [
          (p 0, (Classify.Was_reduced, Some (vid 1 0)));
          (p 1, (Classify.Was_fresh, None));
        ]
  in
  assert_wf "exact rebirth" (Classify.exact ~members:[ p 0; p 1 ] ~prior:pr_rebirth);
  let ev =
    build_eview (vid 4 0) [ p 0; p 1; p 2; p 3 ]
      [
        (p 0, 0, 0, Some (vid 3 0));
        (p 1, 0, 0, Some (vid 3 0));
        (p 2, 2, 2, Some (vid 3 2));
        (p 3, 3, 3, None);
      ]
  in
  assert_wf "enriched"
    (Classify.enriched ~eview:ev ~would_serve_all:(fun _ -> true) ());
  let k =
    {
      Classify.fk_members = [ p 0; p 1; p 2 ];
      fk_me = p 0;
      fk_my_prior = Classify.Was_reduced;
      fk_my_prior_members = [ p 0 ];
    }
  in
  List.iter (assert_wf "flat possibility") (Classify.flat k);
  List.iter (assert_wf "flat one-at-a-time") (Classify.flat_one_at_a_time k)

(* Soundness of flat reasoning, as a property over arbitrary scenarios: for
   any assignment of prior states/views to members, the oracle's verdict
   shape is among the flat classifier's possibilities when evaluated from
   any member's standpoint. *)
let flat_soundness_property =
  let gen =
    QCheck.(
      list_of_size (Gen.int_range 1 7)
        (pair (int_bound 3) (int_bound 2)))
  in
  QCheck.Test.make ~name:"flat classifier is sound against the oracle"
    ~count:500 gen (fun specs ->
      let members =
        Vs_util.Listx.sorted_set ~cmp:Proc_id.compare
          (List.mapi (fun i _ -> p i) specs)
      in
      let assignment =
        List.mapi
          (fun i (state_ix, view_ix) ->
            let state =
              match state_ix with
              | 0 -> Classify.Was_normal
              | 1 -> Classify.Was_reduced
              | 2 -> Classify.Was_settling
              | _ -> Classify.Was_fresh
            in
            let prior =
              if state = Classify.Was_fresh then None else Some (vid (view_ix + 1) 0)
            in
            (p i, (state, prior)))
          specs
      in
      let prior q =
        match List.assoc_opt q assignment with
        | Some x -> x
        | None -> (Classify.Was_fresh, None)
      in
      let exact_verdict = Classify.exact ~members ~prior in
      Classify.well_formed exact_verdict
      &&
      let truth = Classify.shape exact_verdict in
      (* Check from every member's standpoint. *)
      List.for_all
        (fun me ->
          let my_state, my_prior_vid = prior me in
          (* The member's prior view composition: everyone sharing its prior
             view id (what it would know locally). *)
          let my_prior_members =
            match my_prior_vid with
            | None -> [ me ]
            | Some pv ->
                List.filter
                  (fun q ->
                    match prior q with
                    | _, Some pv' -> View.Id.equal pv pv'
                    | _, None -> false)
                  members
          in
          (* The flat model assumes survivors of one view shared its mode;
             restrict to assignments where that holds (mixed-mode prior
             views model mid-view divergence, which E5 measures but the
             soundness property does not promise). *)
          let assumption_holds =
            List.for_all
              (fun q -> fst (prior q) = my_state)
              my_prior_members
          in
          (not assumption_holds)
          ||
          let possibilities =
            Classify.flat
              {
                Classify.fk_members = members;
                fk_me = me;
                fk_my_prior = my_state;
                fk_my_prior_members = my_prior_members;
              }
          in
          List.for_all Classify.well_formed possibilities
          && List.mem truth (List.map Classify.shape possibilities))
        members)

(* ---------- History ---------- *)

let test_history () =
  let h = History.create (p 0) in
  check Alcotest.bool "empty history has no view" false
    (History.first_event_is_view h);
  let v = View.singleton (p 0) in
  History.record h ~time:0.0 (History.View_event v);
  History.record h ~time:0.1
    (History.Mode_event { mode = Mode.Settling; cause = None });
  History.record h ~time:0.2
    (History.Deliver { sender = p 0; seq = 1; vid = v.View.id });
  History.record h ~time:0.3
    (History.Mode_event { mode = Mode.Normal; cause = Some Mode.Reconcile });
  check Alcotest.bool "first event is a view (Section 3)" true
    (History.first_event_is_view h);
  check Alcotest.int "length" 4 (History.length h);
  check Alcotest.int "prefix" 2 (List.length (History.prefix h 2));
  check Alcotest.int "views" 1 (List.length (History.views h));
  check Alcotest.int "deliveries in view" 1
    (List.length (History.deliveries_in_view h v.View.id));
  check Alcotest.bool "current mode" true
    (History.current_mode h = Some Mode.Normal);
  (* A mode function over the history: Normal iff something was delivered. *)
  let mf entries =
    if
      List.exists
        (fun e -> match e.History.event with History.Deliver _ -> true | _ -> false)
        entries
    then Mode.Normal
    else Mode.Settling
  in
  check Alcotest.bool "mode function evaluates" true
    (Mode.equal (History.evaluate h mf) Mode.Normal)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "evs_core"
    [
      ( "e_view",
        [
          Alcotest.test_case "initial" `Quick test_initial;
          Alcotest.test_case "rebuild groups by tag" `Quick test_rebuild_groups_by_tag;
          Alcotest.test_case "fresh members" `Quick test_rebuild_fresh_members;
          Alcotest.test_case "splits stay apart" `Quick test_rebuild_splits_stay_apart;
          Alcotest.test_case "svset merge" `Quick test_svset_merge;
          Alcotest.test_case "subview merge" `Quick test_subview_merge_same_svset;
          Alcotest.test_case "vanished ids" `Quick test_merge_with_vanished_ids;
          Alcotest.test_case "rebuild from snapshots" `Quick
            test_rebuild_from_snapshots;
          Alcotest.test_case "snapshots: fresh/missing" `Quick
            test_rebuild_from_snapshots_fresh_and_missing;
          Alcotest.test_case "degenerate" `Quick test_degenerate_detection;
          qt eview_rebuild_property;
        ] );
      ( "mode",
        [
          Alcotest.test_case "figure 1 edges" `Quick test_figure1_edges;
          Alcotest.test_case "machine lifecycle" `Quick test_machine_lifecycle;
          Alcotest.test_case "policies" `Quick test_machine_policies;
          Alcotest.test_case "history and counts" `Quick
            test_machine_history_and_counts;
          qt machine_never_illegal_property;
        ] );
      ( "classify",
        [
          Alcotest.test_case "exact oracle" `Quick test_exact_oracle;
          Alcotest.test_case "enriched majority (6.2)" `Quick
            test_enriched_majority_example;
          Alcotest.test_case "enriched merging + settled" `Quick
            test_enriched_merging_and_settled;
          Alcotest.test_case "verdicts well-formed" `Quick
            test_classify_well_formed;
          Alcotest.test_case "flat ambiguity (Section 4)" `Quick test_flat_ambiguity;
          Alcotest.test_case "flat exact cases" `Quick test_flat_exact_cases;
          Alcotest.test_case "flat soundness" `Quick test_flat_soundness_vs_oracle;
          Alcotest.test_case "flat one-at-a-time (Isis)" `Quick
            test_flat_one_at_a_time;
          QCheck_alcotest.to_alcotest flat_soundness_property;
        ] );
      ("history", [ Alcotest.test_case "section 3 histories" `Quick test_history ]);
    ]
