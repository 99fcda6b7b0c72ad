(** Per-run event recorder.

    One recorder is threaded through a simulation (via [Sim.create ?obs]) and
    every protocol layer emits typed {!Event.t} values onto it.  Recording is
    a cons onto a reversed list — no formatting, no sorting — and readers
    share one materialized chronological view. *)

type level =
  | Off  (** record nothing; emission sites still run their guards *)
  | Protocol
      (** protocol-level events (views, modes, faults, retries) — the
          default *)
  | Full  (** additionally record per-message send/recv/drop/dup traffic *)

val level_to_string : level -> string

type entry = { time : float; event : Event.t }

type t

val create : ?level:level -> unit -> t
(** An unbounded recorder.  Level defaults to the process-wide
    {!default_level}. *)

val protocol_on : t -> bool
(** [level >= Protocol]. *)

val full_on : t -> bool
(** [level = Full].  Hot data-path sites guard on this so that non-[Full]
    runs pay zero allocations per send. *)

val emit : t -> time:float -> Event.t -> unit
(** No-op at [Off].  When {!add_sink} taps are installed, every recorded
    event is also passed to each of them in registration order (after
    storage); [Off] emissions never reach the sinks. *)

type sink_handle

val add_sink : t -> (time:float -> Event.t -> unit) -> sink_handle
(** Install a live tap on the recorded stream and return a handle for
    {!remove_sink}.  Multiple sinks coexist (the vsmon series tap and the
    vspath causal collector can watch the same run); with no sinks
    installed — the default — {!emit} is byte-identical to a sink-less
    recorder and allocates nothing beyond storage. *)

val remove_sink : t -> sink_handle -> unit
(** Detach the tap registered under [handle].  Unknown or already-removed
    handles are ignored. *)

val count : t -> int
(** Total events recorded. *)

val entries : t -> entry list
(** All entries, oldest first.  The chronological list is materialized once
    per generation and shared by all readers. *)

val tail : ?limit:int -> t -> entry list
(** Last [limit] (default 30) entries, oldest first, without materializing
    the full view. *)

val set_default_level : level -> unit
(** Process-wide default used by [create] when [?level] is omitted; lets the
    bench harness toggle instrumentation without re-plumbing every
    constructor.  Deterministic: set once at startup, never from protocol
    code. *)

val default_level : unit -> level
