(** Flush-stall attribution: split each view installation's latency into
    the paper's three cost-model waits, reconstructed from recorded
    Propose / Flush / Install events alone.

    For an install of view [v] at member [p]:

    - {b propose-wait} — first [Propose] of [v] to [p]'s own [Flush]: the
      member draining and flushing its unstable messages;
    - {b flush-ack-wait} — [p]'s [Flush] to the last [Flush] of [v] before
      the install: waiting on the slowest peer to reach the sync barrier;
    - {b stability-wait} — last [Flush] to [p]'s [Install]: the stability
      decision and install delivery.

    The three segments sum to the install latency that
    [Metrics] records as [view.install-latency]. *)

type attr = {
  a_proc : Event.proc;
  a_vid : Event.vid;
  a_time : float;  (** install time *)
  a_proposed : float;  (** first [Propose] of the view *)
  a_own_flush : float;  (** [p]'s own flush-ack, clamped *)
  a_last_flush : float;  (** last flush-ack of the view, clamped *)
  a_propose_wait : float;
  a_flush_wait : float;
  a_stability_wait : float;
}
(** The cut points satisfy
    [a_proposed <= a_own_flush <= a_last_flush <= a_time]; the three waits
    are the differences of consecutive cut points. *)

val total : attr -> float
(** Sum of the three segments = the install's latency. *)

(** {2 The anchor tracker}

    The single owner of the Propose -> Flush -> Install anchors in lib/obs:
    {!of_entries}, [Critpath], [Metrics] and the Chrome exporter all step
    one of these over the stream. *)

type install = {
  i_proc : Event.proc;
  i_vid : Event.vid;
  i_time : float;
  i_proposed : float option;
      (** first [Propose] of the view; [None] when not retained *)
  i_own_flush : (float * int) option;
      (** [i_proc]'s first flush-ack of the view and its stream index *)
  i_last_flush : (float * Event.proc) option;
      (** the view's newest flush-ack so far and its sender *)
}
(** The raw anchors of one [Install] event, as the tracker saw them. *)

type tracker

val tracker : unit -> tracker

val step : tracker -> time:float -> Event.t -> install option
(** Feed the next event of the stream; [Some] exactly at [Install] events.
    The stream index of an event is the number of events stepped before
    it, so a consumer must step every event to get stream indices.  A
    member's first flush-ack of a view is kept across installs: if one
    process incarnation installs the same view twice, both installs
    anchor on that flush-ack. *)

val attr : install -> attr option
(** Clamp the anchors into the three waits.  [None] when the view's
    [Propose] was not retained; with no own flush-ack (the member joined
    mid-change) the propose-wait is zero. *)

val of_entries : Recorder.entry list -> attr list
(** One forward pass; result in install order.  Installs whose [Propose]
    was not retained (truncated ring recordings) are skipped; segments are
    clamped non-negative on partial recordings. *)

type window_row = {
  w_index : int;
  w_installs : int;
  w_propose : float;  (** summed seconds per segment over the window *)
  w_flush : float;
  w_stability : float;
}

val windows : interval:float -> attr list -> window_row list
(** Group attributions into [interval]-second windows of install time,
    ascending, windows with no installs omitted.  Raises
    [Invalid_argument] on a non-positive interval. *)

val window_total : window_row -> float

val to_table : interval:float -> attr list -> Vs_stats.Table.t

val to_json : interval:float -> attr list -> Json.t
