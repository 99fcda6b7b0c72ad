module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module E_view = Evs_core.E_view
module Classify = Evs_core.Classify

type protocol = Vsync | Evs

let protocol_to_string = function Vsync -> "vsync" | Evs -> "evs"

type setup = {
  seed : int64;
  n : int;
  protocol : protocol;
  net_config : Net.config;
}

type traffic = { tr_start : float; tr_until : float; tr_gap : float }

type quarantine = {
  q_bound : int;
  q_views : int;
  q_cut : float option;
  q_quarantined : int;
}

type outcome = {
  violations : string list;
  verdicts : Vs_obs.Explain.violation list;
  deliveries : int;
  installs : int;
  distinct_views : int;
  eview_changes : int;
  events : int;
  stable : bool;
  quarantine : quarantine option;
  straggler : (string * float) option;
}

(* The vspath straggler verdict for the run, when the caller recorded it at
   Full level — the only level at which the causal DAG has its message
   edges.  Anything below Full yields [None] without touching the entries,
   so the checking paths (Protocol or Off recorders) pay nothing. *)
let causal_straggler obs =
  match obs with
  | Some r when Vs_obs.Recorder.full_on r && Vs_obs.Recorder.count r > 0 ->
      let cp = Vs_obs.Critpath.of_entries (Vs_obs.Recorder.entries r) in
      Option.map
        (fun (p, c) -> (Vs_obs.Event.proc_to_string p, c))
        cp.Vs_obs.Critpath.straggler
  | Some _ | None -> None

(* EVS harness checks return plain strings; wrap them so the explain layer
   can still attribute them to a property class. *)
let wrap_verdict property detail =
  { Vs_obs.Explain.property; msg = None; procs = []; vids = []; detail }

(* The stabilization verdict, surfaced both as a typed event on the run's
   stream (so vsexplain can attribute recovery) and as the outcome's
   [quarantine] summary.  [extra] counts EVS-side records the [since]
   filters forgave on top of the oracle's own quarantined violations. *)
let finish_stabilization sim (st : Oracle.stabilization) ~extra =
  let quarantined = List.length st.Oracle.st_quarantined + extra in
  Sim.emit sim
    (Vs_obs.Event.Quarantine
       {
         bound = st.Oracle.st_bound;
         opened = st.Oracle.st_first_fault;
         cut = (match st.Oracle.st_cut with Some c -> c | None -> -1.0);
         views = st.Oracle.st_views;
         quarantined;
       });
  {
    q_bound = st.Oracle.st_bound;
    q_views = st.Oracle.st_views;
    q_cut = st.Oracle.st_cut;
    q_quarantined = quarantined;
  }

(* Section 6 structural invariants over every e-view any process ever
   installed: E_view.validate (subviews partition the membership, sv-sets
   partition the subviews) and well-formedness of the classification verdict
   a majority-quorum application would derive from it. *)
let evs_structural_violations ~since ~n c =
  let quorum ms = 2 * List.length ms > n in
  List.concat_map
    (fun (r : Evs_cluster.eview_record) ->
      let where =
        Printf.sprintf "%s at t=%.3f"
          (Proc_id.to_string r.Evs_cluster.er_proc)
          r.Evs_cluster.er_time
      in
      let ev = r.Evs_cluster.er_eview in
      let mk detail =
        {
          Vs_obs.Explain.property = Vs_obs.Explain.Evs_invariant;
          msg = None;
          procs = [ Proc_id.to_obs r.Evs_cluster.er_proc ];
          vids = [ View.Id.to_obs ev.E_view.view.View.id ];
          detail;
        }
      in
      let structural =
        match E_view.validate ev with
        | Ok () -> []
        | Error e ->
            [ mk (Printf.sprintf "e-view invariant (%s): %s in %s" where e
                    (E_view.to_string ev)) ]
      in
      let verdict = Classify.enriched ~eview:ev ~would_serve_all:quorum () in
      let classify =
        if Classify.well_formed verdict then []
        else
          [ mk (Printf.sprintf "classify not well-formed (%s): %s on %s" where
                  (Classify.problem_to_string verdict)
                  (E_view.to_string ev)) ]
      in
      structural @ classify)
    (List.filter
       (fun (r : Evs_cluster.eview_record) -> r.Evs_cluster.er_time >= since)
       (Evs_cluster.eview_records c))

(* Every Section 6 verdict over the e-view records at or after [since]. *)
let section6_verdicts ~n c ~since =
  List.map
    (wrap_verdict Vs_obs.Explain.Evs_total_order)
    (Evs_cluster.check_total_order ~since c)
  @ List.map
      (wrap_verdict Vs_obs.Explain.Evs_structure)
      (Evs_cluster.check_structure ~since c)
  @ evs_structural_violations ~since ~n c

let run_schedule ?traffic ?obs ?stabilization_bound setup ~script ~until =
  let drive ~run_script ~pump_traffic ~run c =
    run_script c script;
    (match traffic with
    | Some tr when tr.tr_gap > 0. ->
        pump_traffic c ~start:tr.tr_start ~until:tr.tr_until ~mean_gap:tr.tr_gap
    | Some _ | None -> ());
    run c ~until
  in
  (* The protocol-specific part of a run: VS contributes no Section 6
     verdicts and no e-view changes. *)
  let sim, oracle, stable, section6, eview_changes =
    match setup.protocol with
    | Vsync ->
        let module C = Vsync_cluster in
        let c =
          C.create ~seed:setup.seed ?obs ~net_config:setup.net_config
            ~n:setup.n ()
        in
        drive ~run_script:C.run_script ~pump_traffic:C.pump_traffic ~run:C.run c;
        (C.sim c, C.oracle c, C.stable_view_reached c, (fun ~since:_ -> []), 0)
    | Evs ->
        let module C = Evs_cluster in
        let c =
          C.create ~seed:setup.seed ?obs ~net_config:setup.net_config
            ~n:setup.n ()
        in
        drive ~run_script:C.run_script ~pump_traffic:C.pump_traffic ~run:C.run c;
        ( C.sim c,
          C.oracle c,
          C.stable_view_reached c,
          section6_verdicts ~n:setup.n c,
          C.eview_changes_total c )
  in
  let raw = Oracle.all_violations oracle in
  let verdicts, quarantine =
    match Oracle.stabilization oracle ?bound:stabilization_bound raw with
    | None ->
        ( List.map Oracle.to_obs_violation raw @ section6 ~since:neg_infinity,
          None )
    | Some st ->
        (* Section 6 records inside the recovery window are quarantined by
           re-running the checks from the cut; a run that never reconverged
           already carries the synthesized residual, so its Section 6 noise
           is forgiven wholesale. *)
        let since =
          match st.Oracle.st_cut with Some cut -> cut | None -> infinity
        in
        let all = section6 ~since:neg_infinity in
        let kept = section6 ~since in
        let extra = List.length all - List.length kept in
        ( List.map Oracle.to_obs_violation st.Oracle.st_residual @ kept,
          Some (finish_stabilization sim st ~extra) )
  in
  {
    violations = List.map (fun v -> v.Vs_obs.Explain.detail) verdicts;
    verdicts;
    deliveries = Oracle.total_deliveries oracle;
    installs = Oracle.total_installs oracle;
    distinct_views = Oracle.distinct_views oracle;
    eview_changes;
    events = Sim.events_processed sim;
    stable;
    quarantine;
    straggler = causal_straggler obs;
  }
