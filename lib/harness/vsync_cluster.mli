(** A cluster of plain view-synchronous endpoints under oracle observation.

    Payloads are oracle message identities; every multicast, delivery and
    view installation is recorded, so a run can be driven with arbitrary
    fault scripts and traffic and then checked against Properties 2.1–2.3.
    This is the workhorse of the randomized protocol tests and of
    experiments E4 and E10. *)

module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module Endpoint = Vs_vsync.Endpoint

type t

val create :
  ?seed:int64 ->
  ?obs:Vs_obs.Recorder.t ->
  ?net_config:Vs_net.Net.config ->
  ?config:Endpoint.config ->
  n:int ->
  unit ->
  t
(** [n] nodes, one process each, booted at time 0. *)

val sim : t -> Vs_sim.Sim.t

val oracle : t -> Oracle.t

val net_stats : t -> Vs_net.Net.stats

val run : t -> until:float -> unit

val live_endpoints : t -> (Oracle.msg_id, unit) Endpoint.t list

val endpoint_on : t -> int -> (Oracle.msg_id, unit) Endpoint.t option
(** The live endpoint on a node, if any. *)

val multicast_from : t -> node:int -> ?order:Endpoint.order -> unit -> unit
(** Multicast the node's next uniquely-identified message. No-op if the
    node is down. *)

val apply_action : t -> Faults.action -> unit

val run_script : t -> Faults.script -> unit
(** Schedule a fault script against this cluster. *)

val pump_traffic :
  t -> start:float -> until:float -> mean_gap:float -> unit
(** Schedule random multicasts: at exponentially-spaced instants a random
    live node multicasts one message (80% FIFO / 20% total order). *)

val stats_total : t -> Endpoint.stats
(** Endpoint counters summed over the live endpoints (retry/NACK activity
    for the loss experiments). *)

val views_installed_per_process : t -> (Proc_id.t * int) list
(** Install counts including dead incarnations — the E4 metric. *)

val stable_view_reached : t -> bool
(** All live endpoints share one installed view covering all live nodes and
    are not flushing. *)

val await_stable_view : t -> step:float -> deadline:float -> float
(** Run in [step]-second slices until {!stable_view_reached} holds and
    return the time it first did, or [infinity] once [deadline] passes. *)
