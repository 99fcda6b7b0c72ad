(** One member per node under a fault script: the node lifecycle and fault
    interpreter of {!Cluster} and the E-series application fleets.

    The paper's partitionable model (Sections 2 and 6) is interpreted here
    once: processes crash and return as fresh incarnations, links
    partition and heal, transient faults corrupt a live member.  Members
    boot as the network's next incarnation of their node. *)

module Proc_id = Vs_net.Proc_id

type 'a ops = {
  spawn : Proc_id.t -> 'a;
      (** boot a member as this incarnation, registered on the fleet's net *)
  me : 'a -> Proc_id.t;
  is_alive : 'a -> bool;
  kill : 'a -> unit;
  corrupt : 'a -> Faults.corruption -> unit;
      (** smash one state field of a live member *)
}

type 'a t

val create : Vs_sim.Sim.t -> 'm Vs_net.Net.t -> nodes:int list -> 'a ops -> 'a t
(** Boots one member per node, in [nodes] order. *)

val sim : 'a t -> Vs_sim.Sim.t

val live : 'a t -> 'a list
(** The live members, in node order. *)

val on_node : 'a t -> int -> 'a option

val apply_action : 'a t -> Faults.action -> unit
(** Partition and heal act on the network.  Crash and corrupt act on a
    node's live member; recover boots one on a node that has none;
    otherwise they are no-ops.  Raises [Invalid_argument] for a node
    outside the fleet. *)

val run_script : 'a t -> Faults.script -> unit
(** Schedule every action, recorded as a ["faults"] note when it fires. *)
