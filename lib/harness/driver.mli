(** The protocol choice and the final judgement of a {!Cluster} run.

    A run is judged by its {!Oracle}: the Section 2 verdicts over the
    whole run and, for enriched view synchrony, the Section 6 verdicts —
    Property 6.1 (total order of e-view changes), Property 6.3 (structure
    preservation) and the structural invariants of every recorded e-view.
    When the run injected transient faults, {!judge} filters them through
    the stabilization oracle.  {!Vs_check.Campaign.run} drives the cluster
    and calls {!judge} once, for either protocol. *)

type protocol = Vsync | Evs

val protocol_to_string : protocol -> string

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

val judge :
  n:int -> 'a Cluster.t -> Vs_obs.Explain.violation list * quarantine option
(** Every verdict on the finished run of [n] nodes: the oracle's Section 2
    verdicts, then its Section 6 verdicts (none on a plain cluster).  The
    quarantine is [Some _] iff the script injected transient corruptions:
    the Section 2 verdicts were filtered through {!Oracle.stabilization}
    (recovery-window violations quarantined, persisting ones relabeled)
    and the Section 6 checks re-ran from its cut. *)
