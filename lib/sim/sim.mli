(** Deterministic discrete-event simulator.

    The whole stack — network, failure detector, membership, view synchrony,
    applications — runs as callbacks scheduled on one of these engines.
    Events with equal timestamps fire in scheduling order, and all randomness
    flows from the engine's seeded {!Rng}, so two runs with the same seed are
    bit-identical. *)

type t

type handle
(** A scheduled event; can be cancelled before it fires. *)

val create : ?seed:int64 -> ?obs:Vs_obs.Recorder.t -> unit -> t
(** [create ?seed ()] makes an engine at virtual time 0. Default seed 1.
    [?obs] supplies the per-run event recorder; a fresh one at the
    process-wide default level is created when omitted. *)

val now : t -> float
(** Current virtual time (seconds). *)

val rng : t -> Vs_util.Rng.t
(** The engine's root generator. *)

val fork_rng : t -> Vs_util.Rng.t
(** An independent generator split off the root — give one to each component
    that needs private randomness. *)

val obs : t -> Vs_obs.Recorder.t
(** The engine's event recorder. *)

val emit : t -> Vs_obs.Event.t -> unit
(** Emit a typed event at the current virtual time (no-op when recording is
    off). *)

val obs_on : t -> bool
(** Recording at [Protocol] level or above. *)

val obs_full : t -> bool
(** Recording at [Full] level — guards per-message data-path events so that
    non-[Full] runs pay zero allocations per send. *)

val record : t -> component:string -> string -> unit
(** [record t ~component message] emits an untyped [Note] event at the
    current virtual time; prefer [emit] with a typed event. *)

val after : t -> float -> (unit -> unit) -> handle
(** [after t d f] schedules [f] at [now t +. d]. [d] must be >= 0, not nan. *)

val at : t -> float -> (unit -> unit) -> handle
(** Schedule at an absolute time, which must not be nan or lie in the past. *)

val cancel : handle -> unit
(** Prevent a pending event from firing; no-op if already fired/cancelled. *)

val pending : t -> int
(** Number of scheduled, uncancelled events.  O(1): the count is maintained
    on schedule/cancel/fire rather than recomputed from the queue. *)

val events_processed : t -> int

type stop_reason =
  | Quiescent      (** no more events *)
  | Reached_until  (** hit the [until] horizon *)
  | Event_budget   (** processed [max_events] events *)

val run : ?until:float -> ?max_events:int -> t -> stop_reason
(** Process events in timestamp order. With [until] (not nan), stops (without
    advancing the clock past [until]) once the next event is later than it. *)

val step : t -> bool
(** Process a single event; [false] if none pending. *)
