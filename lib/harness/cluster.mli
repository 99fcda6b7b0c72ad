(** A cluster of view-synchronous members under oracle observation, for
    plain view synchrony ({!vsync}) and enriched view synchrony ({!evs})
    alike.

    Payloads are oracle message identities.  Every multicast, delivery and
    view installation — and, on an EVS cluster, every e-view event at every
    process — is recorded with the cluster's {!Oracle}, so a run can be
    driven with arbitrary fault scripts and traffic and then judged there:
    Properties 2.1–2.3, which hold for EVS runs too, and the Section 6
    properties, which find nothing on a plain cluster.  The cluster runs
    the members; the oracle records and judges; {!Driver.judge} applies
    the stabilization filter.  This is the workhorse of the randomized
    protocol tests, of {!Vs_check.Campaign.run} and of experiments E2–E4,
    E9/E10, E11 and T. *)

module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module Evs = Evs_core.Evs
module Endpoint = Vs_vsync.Endpoint

type endpoint = (Oracle.msg_id, unit) Endpoint.t

type handle = (Oracle.msg_id, unit) Evs.t

type 'a t
(** A cluster whose members are ['a]: {!endpoint} or {!handle}. *)

val vsync :
  ?seed:int64 ->
  ?obs:Vs_obs.Recorder.t ->
  ?net_config:Vs_net.Net.config ->
  ?config:Endpoint.config ->
  n:int ->
  unit ->
  endpoint t
(** [n] nodes, one plain endpoint each, booted at time 0. *)

val evs :
  ?seed:int64 ->
  ?obs:Vs_obs.Recorder.t ->
  ?net_config:Vs_net.Net.config ->
  ?config:Endpoint.config ->
  n:int ->
  unit ->
  handle t
(** [n] nodes, one EVS handle each, booted at time 0. *)

val sim : 'a t -> Vs_sim.Sim.t

val oracle : 'a t -> Oracle.t

val net_stats : 'a t -> Vs_net.Net.stats

val run : 'a t -> until:float -> unit

val live : 'a t -> 'a list
(** The live members, in node order. *)

val on_node : 'a t -> int -> 'a option
(** The live member on a node, if any. *)

val multicast_from : 'a t -> node:int -> ?order:Endpoint.order -> unit -> unit
(** Multicast the node's next message id (default FIFO), recorded with the
    oracle; ids are numbered per node across its incarnations.  No-op if
    the node is down. *)

val apply_action : 'a t -> Faults.action -> unit
(** {!Fleet.apply_action}; a corruption is also recorded with the oracle,
    which arms its stabilization check. *)

val run_script : 'a t -> Faults.script -> unit
(** Schedule a fault script against this cluster. *)

val pump_traffic : 'a t -> start:float -> until:float -> mean_gap:float -> unit
(** Schedule random multicasts: at exponentially-spaced instants a random
    node multicasts one message (80% FIFO / 20% total order). *)

val stats_total : 'a t -> Endpoint.stats
(** Endpoint counters summed over the live members (retry/NACK activity
    for the loss experiments). *)

val stable_view_reached : 'a t -> bool
(** All live members share one installed view covering exactly the live
    nodes, and none is flushing. *)

val await_stable_view : 'a t -> step:float -> deadline:float -> float
(** Run in [step]-second slices until {!stable_view_reached} holds and
    return the time it first did, or [infinity] once [deadline] passes. *)
