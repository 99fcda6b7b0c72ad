(** Windowed time series over a recorded run — the continuous half of the
    telemetry plane (vsmon).

    Attach with [Recorder.add_sink recorder (Series.observe s)].  Every observed event folds into a live
    {!Metrics.deriv} registry; each time an event's timestamp crosses a
    window boundary the registry is scraped into an immutable cumulative
    snapshot.  Windows close {e lazily} — driven by observed event times,
    never by simulator timers — so attaching a series changes no event, no
    RNG draw, no timestamp: the run schedule with scraping on is identical
    to the run schedule with scraping off, and the snapshot sequence is
    byte-deterministic across identically-seeded runs. *)

type snapshot = {
  window : int;  (** index [k]: the simulated-time span [kΔ, (k+1)Δ) *)
  t_start : float;
  t_end : float;
  scrape : Metrics.scrape;  (** the registry at window close, cumulative *)
}

type t

val create : ?interval:float -> unit -> t
(** [create ()] — windows of [interval] simulated seconds (default [0.5]);
    a fixed ring retains the newest 1024 snapshots.  Raises
    [Invalid_argument] on a non-positive interval. *)

val default_interval : float

val observe : t -> time:float -> Event.t -> unit
(** The sink: fold one event, closing any windows its timestamp has moved
    past.  Events must arrive in non-decreasing time order (the recorder
    guarantees this).  Ignored after {!finish}. *)

val finish : t -> now:float -> unit
(** Close windows through the one containing [now] — call once at the end
    of a run so the final partial window is captured.  Idempotent. *)

val capacity : t -> int

val count : t -> int
(** Snapshots ever taken; [count t > capacity t] signals ring
    truncation. *)

val metrics : t -> Metrics.t
(** The live registry the fold maintains — end-of-run totals. *)

val snapshots : t -> snapshot list
(** Retained snapshots, oldest first. *)

val delta_counter : prev:snapshot option -> snapshot -> string -> int
(** Per-window counter delta between consecutive snapshots; [prev = None]
    treats the cumulative value as the delta (first window). *)

val to_json : t -> Json.t
(** Canonical JSON ([interval] / [windows] / [truncated] / [snapshots]) —
    byte-deterministic across identically-seeded runs. *)

val to_table : t -> Vs_stats.Table.t
(** One row per retained window: span, per-window deltas of sends,
    proposes, installs and retransmits, and the p99 install-latency /
    flush-stall costs. *)
