(** Critical-path extraction over the happened-before DAG (vspath).

    For every [Install] the view's latency window [t_propose, t_install] is
    decomposed into typed, contiguous segments by walking the DAG backwards
    from the installer's own flush-ack, always following the
    latest-finishing predecessor — the classic critical-path rule.  The
    walk steps {!Stall}'s anchor tracker and cuts each install at the
    {!Stall.attr} it yields, so the flush-ack-wait and stability-wait
    phases are the vsmon stall attribution of the same recording.

    Applied ops get the same treatment: for each [(origin, seq)] identity
    the walk runs backwards from its last delivery to its first wire send,
    and the per-op results are aggregated (the per-op paths are too many to
    keep, the distribution is what matters).

    Every segment is charged to a process (local work, waits) or a link
    (wire flight, charged to the sender); the per-view {e straggler} is the
    process with the largest summed charge across that view's install
    paths — the process whose removal would shorten the path most. *)

type seg_kind =
  | Local_compute
  | Network_flight
  | Retransmit_wait
  | Flush_ack_wait
  | Stability_wait
  | Suspect_timeout

val seg_kind_to_string : seg_kind -> string
(** ["local-compute"], ["network-flight"], ["retransmit-wait"],
    ["flush-ack-wait"], ["stability-wait"], ["suspect-timeout"]. *)

val all_seg_kinds : seg_kind list

type segment = {
  s_kind : seg_kind;
  s_from : float;
  s_until : float;
  s_proc : Event.proc;  (** the charged process *)
  s_link : Event.proc option;
      (** [Some dst] when the segment is a wire hop [s_proc -> dst] *)
}

type install_path = {
  ip_attr : Stall.attr;
      (** the stall attribution the path was cut from: installer, view,
          install time and the propose / flush-ack / stability anchors *)
  ip_segments : segment list;
      (** chronological and contiguous over the latency window, so segment
          durations sum to {!latency} (up to float telescoping) *)
  ip_straggler : Event.proc option;
      (** largest summed charge on this install's path *)
}

val latency : install_path -> float
(** [t_install - t_propose]. *)

type view_row = {
  vr_vid : Event.vid;
  vr_installs : int;
  vr_latency : float;  (** summed across installs *)
  vr_kind_seconds : (seg_kind * float) list;  (** every kind, fixed order *)
  vr_straggler : (Event.proc * float) option;
      (** process, summed charged seconds *)
}

type op_stats = {
  o_ops : int;  (** identities with at least one delivery *)
  o_latency_total : float;  (** sum of (last recv - first send) *)
  o_latency_max : float;
  o_kind_seconds : (seg_kind * float) list;
  o_retransmit_delayed : int;
      (** ops whose critical path crossed a retransmit hop *)
  o_slowest : (Event.msg * float) option;
}

type t = {
  installs : install_path list;  (** install-time order *)
  views : view_row list;  (** sorted by view id *)
  ops : op_stats;
  straggler : (Event.proc * float) option;  (** across all install paths *)
}

val of_dag : Causal.t -> t

val of_entries : Recorder.entry list -> t

val kind_seconds : t -> (seg_kind * float) list
(** Summed across all install paths, every kind present, fixed order. *)

val path_sum : install_path -> float
(** Summed segment durations — equals {!latency} up to float
    telescoping. *)

val default_tol : float
(** The relative tolerance absorbing float telescoping (1e-9). *)

val close : tol:float -> float -> float -> bool
(** Relative closeness at [tol] (absolute below 1.0) — the comparison
    {!consistent_with_stall} and the property suite share. *)

val consistent_with_stall : t -> Stall.attr list -> bool
(** The cross-check bench throughput and the property suite assert: every
    install path's segments sum to its latency, and the summed
    flush-ack-wait / stability-wait components equal the {!Stall}
    attribution of the same recording, each within {!default_tol}. *)

val to_table : t -> Vs_stats.Table.t
(** Per-view decomposition table. *)

val to_json : t -> Json.t

val folded : t -> string
(** Folded stacks, the [view;segment-kind;owner <microseconds>] lines that
    [flamegraph.pl] and [inferno-flamegraph] read.  Each stack sums its
    segments across the view's install paths in integer microseconds, and
    the lines are sorted, so identically-seeded runs render byte-identical
    output (a committed golden sample pins it).  Empty when no view was
    installed. *)
