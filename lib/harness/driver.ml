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
}

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
    (fun (r : Cluster.eview_record) ->
      let where =
        Printf.sprintf "%s at t=%.3f"
          (Proc_id.to_string r.Cluster.er_proc)
          r.Cluster.er_time
      in
      let ev = r.Cluster.er_eview in
      let mk detail =
        {
          Vs_obs.Explain.property = Vs_obs.Explain.Evs_invariant;
          msg = None;
          procs = [ r.Cluster.er_proc ];
          vids = [ ev.E_view.view.View.id ];
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
       (fun (r : Cluster.eview_record) -> r.Cluster.er_time >= since)
       (Cluster.eview_records c))

(* Every Section 6 verdict over the e-view records at or after [since];
   none on a plain cluster, which records no e-views. *)
let section6_verdicts ~n c ~since =
  List.map
    (wrap_verdict Vs_obs.Explain.Evs_total_order)
    (Cluster.check_total_order ~since c)
  @ List.map
      (wrap_verdict Vs_obs.Explain.Evs_structure)
      (Cluster.check_structure ~since c)
  @ evs_structural_violations ~since ~n c

(* Judge a finished run: the oracle's Section 2 verdicts plus Section 6's,
   both filtered through the stabilization oracle when the script injected
   transient faults. *)
let outcome ~n c =
  let sim = Cluster.sim c and oracle = Cluster.oracle c in
  let section6 = section6_verdicts ~n c in
  let raw = Oracle.all_violations oracle in
  let verdicts, quarantine =
    match Oracle.stabilization oracle raw with
    | None -> (raw @ section6 ~since:neg_infinity, None)
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
        (st.Oracle.st_residual @ kept, Some (finish_stabilization sim st ~extra))
  in
  {
    violations = List.map (fun v -> v.Vs_obs.Explain.detail) verdicts;
    verdicts;
    deliveries = Oracle.total_deliveries oracle;
    installs = Oracle.total_installs oracle;
    distinct_views = Oracle.distinct_views oracle;
    eview_changes = Cluster.eview_changes_total c;
    events = Sim.events_processed sim;
    stable = Cluster.stable_view_reached c;
    quarantine;
  }

let run_schedule ~traffic ?obs setup ~script ~until =
  let drive c =
    Cluster.run_script c script;
    if traffic.tr_gap > 0. then
      Cluster.pump_traffic c ~start:traffic.tr_start ~until:traffic.tr_until
        ~mean_gap:traffic.tr_gap;
    Cluster.run c ~until;
    outcome ~n:setup.n c
  in
  let { seed; n; net_config; protocol } = setup in
  match protocol with
  | Vsync -> drive (Cluster.vsync ~seed ?obs ~net_config ~n ())
  | Evs -> drive (Cluster.evs ~seed ?obs ~net_config ~n ())
