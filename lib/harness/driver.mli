(** Uniform run-one-schedule entry point over a {!Cluster}.

    The schedule explorer (lib/check), the CLI and the tests all need the
    same shape of run: boot a cluster on a configured network, schedule a
    fault script and background traffic, run to a horizon, then collect
    every checkable property violation plus the run's head-line counters.
    This module provides that shape once, for plain view synchrony
    ({!Cluster.vsync}) and enriched view synchrony ({!Cluster.evs}) alike,
    so callers never branch on the protocol.

    EVS runs are checked against strictly more properties: on top of the
    Section 2 oracle checks they get Property 6.1 (total order of e-view
    changes), Property 6.3 (structure preservation), the {!E_view.validate}
    structural invariants of every recorded e-view (subviews partition the
    membership, sv-sets partition the subviews), and well-formedness of the
    {!Classify.enriched} verdict computed from each recorded e-view. *)

type protocol = Vsync | Evs

val protocol_to_string : protocol -> string

type setup = {
  seed : int64;
  n : int;  (** nodes, numbered [0 .. n-1] *)
  protocol : protocol;
  net_config : Vs_net.Net.config;
}

type traffic = {
  tr_start : float;
  tr_until : float;
  tr_gap : float;  (** mean gap between multicasts; [<= 0.] disables *)
}

type quarantine = {
  q_bound : int;  (** recovery bound, in installed views *)
  q_views : int;  (** fresh views installed after the last transient fault *)
  q_cut : float option;
      (** when legality resumed; [None] = never reconverged *)
  q_quarantined : int;  (** violations forgiven as recovery noise *)
}
(** Summary of the stabilization oracle's verdict for a run that contained
    transient {!Faults.Corrupt} actions; also emitted as a typed
    [Quarantine] event on the run's stream. *)

type outcome = {
  violations : string list;
      (** every failed property check, human-readable; [] = clean run.
          Always [List.map (fun v -> v.detail) verdicts]. *)
  verdicts : Vs_obs.Explain.violation list;
      (** the same verdicts, structured: which property, which message,
          which processes, which views — what {!Vs_obs.Explain} consumes *)
  deliveries : int;
  installs : int;
  distinct_views : int;
  eview_changes : int;  (** within-view e-view changes; 0 for plain VS *)
  events : int;         (** simulator events processed *)
  stable : bool;
      (** all live members converged on one final view covering the live
          nodes ({!Cluster.stable_view_reached}) *)
  quarantine : quarantine option;
      (** [Some _] iff the script injected transient corruptions: verdicts
          were filtered through {!Oracle.stabilization} (recovery-window
          violations quarantined, persisting ones relabeled) and, on EVS
          runs, the 6.1/6.3/structural checks re-ran from the cut *)
}

val run_schedule :
  traffic:traffic ->
  ?obs:Vs_obs.Recorder.t ->
  setup ->
  script:Faults.script ->
  until:float ->
  outcome
(** Deterministic: the same setup, traffic, script and horizon produce the
    same outcome, bit for bit.  [?obs] receives the run's event stream
    (pass a [Full]-level recorder to capture per-message traffic); the
    recording level widens that stream only, never the outcome.  Runs
    with transient faults are judged at {!Oracle.stabilization}'s default
    recovery bound. *)
