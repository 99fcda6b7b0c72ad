module Sim = Vs_sim.Sim

type protocol = Vsync | Evs

let protocol_to_string = function Vsync -> "vsync" | Evs -> "evs"

type quarantine = {
  q_bound : int;
  q_views : int;
  q_cut : float option;
  q_quarantined : int;
}

(* The stabilization verdict, surfaced both as a typed event on the run's
   stream (so vsexplain can attribute recovery) and as the [quarantine]
   summary.  [extra] counts Section 6 verdicts the [since] filters forgave
   on top of the oracle's own quarantined violations. *)
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

let judge ~n c =
  let oracle = Cluster.oracle c in
  let section6 since =
    Oracle.eview_order_violations ~since oracle
    @ Oracle.structure_violations ~since oracle
    @ Oracle.eview_invariant_violations oracle ~since ~n
  in
  let raw = Oracle.all_violations oracle in
  match Oracle.stabilization oracle raw with
  | None -> (raw @ section6 neg_infinity, None)
  | Some st ->
      (* Section 6 records inside the recovery window are quarantined by
         re-running the checks from the cut; a run that never reconverged
         already carries the synthesized residual, so its Section 6 noise
         is forgiven wholesale. *)
      let since =
        match st.Oracle.st_cut with Some cut -> cut | None -> infinity
      in
      let all = section6 neg_infinity and kept = section6 since in
      let extra = List.length all - List.length kept in
      ( st.Oracle.st_residual @ kept,
        Some (finish_stabilization (Cluster.sim c) st ~extra) )
