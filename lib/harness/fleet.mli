(** One member per node under a fault script: the node lifecycle and fault
    interpreter of {!Vsync_cluster}, {!Evs_cluster} and the E-series
    application fleets.

    The paper's partitionable model (Sections 2 and 6) is interpreted here
    once: processes crash and return as fresh incarnations, links
    partition and heal, transient faults corrupt a live member.  Members
    boot as the network's next incarnation of their node; each node's
    oracle messages are numbered across its incarnations. *)

module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module Endpoint = Vs_vsync.Endpoint

type 'a ops = {
  spawn : Proc_id.t -> 'a;
      (** boot a member as this incarnation, registered on the fleet's net *)
  me : 'a -> Proc_id.t;
  is_alive : 'a -> bool;
  kill : 'a -> unit;
  corrupt : 'a -> Faults.corruption -> string option;
      (** smash one state field and name it; [None]: nothing to corrupt *)
}

type 'a t

type 'a multicast = 'a -> ?order:Endpoint.order -> Oracle.msg_id -> unit
(** A member's multicast, as {!Endpoint.multicast} or [Evs.multicast]. *)

val create :
  Vs_sim.Sim.t -> 'm Vs_net.Net.t -> oracle:Oracle.t -> nodes:int list ->
  'a ops -> 'a t
(** Boots one member per node, in [nodes] order. *)

val sim : 'a t -> Vs_sim.Sim.t

val oracle : 'a t -> Oracle.t

val live : 'a t -> 'a list
(** The live members, in node order. *)

val on_node : 'a t -> int -> 'a option

val apply_action : 'a t -> Faults.action -> unit
(** Partition and heal act on the network.  Crash and corrupt act on a
    node's live member (corrupt also arms the oracle); recover boots one
    on a node that has none; otherwise they are no-ops.  Raises
    [Invalid_argument] for a node outside the fleet. *)

val run_script : 'a t -> Faults.script -> unit
(** Schedule every action, recorded as a ["faults"] note when it fires. *)

val multicast_from :
  'a t -> multicast:'a multicast -> node:int -> order:Endpoint.order -> unit
(** Multicast the node's next message id, recorded with the oracle.  No-op
    if the node is down. *)

val pump_traffic :
  'a t -> rng:Vs_util.Rng.t -> multicast:'a multicast -> start:float ->
  until:float -> mean_gap:float -> unit
(** At exponentially-spaced instants a random node multicasts one message
    (80% FIFO / 20% total order). *)

val stable_view_reached :
  'a t -> view:('a -> View.t) -> is_blocked:('a -> bool) -> bool
(** All live members share one installed view covering exactly the live
    nodes, and none is flushing. *)
