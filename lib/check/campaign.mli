(** One fully-specified, replayable checking campaign.

    A campaign [spec] is everything needed to reproduce a run bit-for-bit:
    the cluster seed, the protocol, the node count, the link parameters
    (a {!Vs_net.Net.config}), the app-traffic pumping rate and the complete
    fault script.  Specs are either derived deterministically from a single
    integer seed ({!generate}) or read back from a shrunk repro artifact
    ({!Repro}).

    Running a spec ({!run}) boots a {!Vs_harness.Cluster} of the spec's
    protocol, drives it through the script and traffic to the horizon, and
    returns the verdicts of {!Vs_harness.Driver.judge} plus the run's
    counters. *)

module Faults = Vs_harness.Faults
module Driver = Vs_harness.Driver

type spec = {
  seed : int64;        (** the cluster / simulator seed *)
  protocol : Driver.protocol;
  nodes : int;
  net : Vs_net.Net.config;
      (** loss, duplication and delay bounds; [byte_delay] is always the
          default, since {!Repro}'s grammar has no field for it *)
  script : Faults.script;
  traffic_gap : float; (** mean gap between app multicasts; [<= 0.] = none *)
  traffic_until : float;
  horizon : float;     (** run the simulation until this virtual time *)
  transient : bool;
      (** the script may contain {!Faults.Corrupt} actions and the run is
          judged by the stabilization oracle *)
}

val equal_spec : spec -> spec -> bool

val weight : spec -> int
(** Size measure used by the shrinker: script actions + nodes, plus one for
    each enabled fault dimension (loss, duplication, a [delay_max] above
    {!Vs_net.Net.default_config}'s, traffic). *)

val describe : spec -> string
(** One-line summary: seed, protocol, sizes, link parameters. *)

val generate :
  ?protocol:Driver.protocol ->
  ?transient:bool ->
  seed:int ->
  nodes:int ->
  quick:bool ->
  unit ->
  spec
(** Deterministically derive a campaign from an integer seed: a random fault
    script over the given node count plus randomized link parameters
    (loss up to 15%, duplication up to 10%, widened delay jitter) and a
    randomized traffic rate.  [quick] shortens the churn window.
    [protocol] defaults to a seed-determined choice; the explorer passes
    both explicitly.
    [transient] (default false) adds the transient-corruption axis: the
    script draws {!Faults.Corrupt} actions with a seed-derived weight and
    the run is judged by the stabilization oracle.  With [transient] off
    the derivation is byte-identical to the pre-transient generator. *)

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
  events : int;  (** simulator events processed *)
  stable : bool;
      (** all live members converged on one final view covering the live
          nodes ({!Vs_harness.Cluster.stable_view_reached}) *)
  quarantine : Driver.quarantine option;
      (** [Some _] iff the script injected transient corruptions *)
}

val run : ?obs:Vs_obs.Recorder.t -> spec -> outcome
(** Deterministic: running the same spec twice yields identical outcomes,
    bit for bit.  [?obs] receives the run's event stream (pass a
    [Full]-level recorder to capture per-message traffic too); the
    recording level widens that stream only, never the outcome.  Runs with
    transient faults are judged at {!Vs_harness.Oracle.stabilization}'s
    default recovery bound. *)

val fails : spec -> bool
(** [run spec] produced at least one violation — the shrinker's default
    failure predicate. *)
