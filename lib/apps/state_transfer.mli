(** State-transfer strategies (Section 5 of the paper, claim C2).

    The object's state is an opaque blob.  When a joiner must be brought up
    to date, the donor — the smallest member holding settled state — ships
    it under one of two strategies:

    - {!Blocking}: the whole blob is transferred before the joiner
      reconciles; service at the joiner is unavailable for the entire
      transfer (the Isis strategy of blocking on state transfer, moved to
      the application layer since our runtime never blocks view
      installations);
    - {!Two_piece}: "split the state into two parts: a (small) piece that
      needs to be transferred in synchrony with the join event; another
      (large) piece that can be transferred concurrently with application
      activity in the new view" — the joiner reconciles as soon as the sync
      piece arrives and the bulk streams in the background in chunks.

    Experiment E6 measures the reconcile latency (availability gap) and the
    full-transfer completion time of both strategies against the state
    size. *)

module Proc_id = Vs_net.Proc_id
module Endpoint = Vs_vsync.Endpoint

type strategy =
  | Blocking
  | Two_piece of { sync_bytes : int; chunk_bytes : int }

type payload

type ann

type net = (payload, ann) Evs_core.Evs.net

val make_net : Vs_sim.Sim.t -> Vs_net.Net.config -> net

type t

val create :
  Vs_sim.Sim.t ->
  net ->
  me:Proc_id.t ->
  universe:int list ->
  ?bootstrap:bool ->
  config:Endpoint.config ->
  strategy:strategy ->
  state_bytes:int ->
  unit ->
  t
(** [state_bytes] is the size of the blob a settled member holds.
    [bootstrap] (default true) marks processes allowed to fabricate the
    initial state when no full copy exists; a joiner created with
    [~bootstrap:false] instead waits until it meets a donor — its
    boot-time singleton view is indistinguishable from a total failure, so
    the distinction must come from the outside. *)

val holds_full_state : t -> bool
(** Whether the whole blob (sync piece and bulk) has arrived. *)

val reconciled_at : t -> float option
(** Virtual time this process last completed a Reconcile transition. *)

val full_state_at : t -> float option
(** Virtual time the full blob last became available locally. *)

val obj : t -> (payload, ann) Group_object.t
(** The object's group-object runtime: its identity, mode, history and
    lifecycle. *)

val kill : t -> unit
(** Stop any bulk stream this process is donating, then crash it. *)
