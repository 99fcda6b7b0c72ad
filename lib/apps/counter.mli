(** Replicated high-water-mark counter — the quickstart group object.

    Increments are multicast in total order and applied by every member, so
    replicas in one view agree.  Concurrent partitions may diverge; on any
    shared-state problem the members exchange reports and adopt the maximum
    (a monotone counter's natural merge), which uniformly solves transfer
    (the joiner adopts the group's value), creation (the survivors' maximum
    is restored) and merging (partitions converge to the highest count). *)

module Proc_id = Vs_net.Proc_id
module Endpoint = Vs_vsync.Endpoint

type payload
(** Wire messages of the counter object. *)

type ann
(** Flush annotation (settled flag + value). *)

type net = (payload, ann) Evs_core.Evs.net

val make_net : Vs_sim.Sim.t -> Vs_net.Net.config -> net

type t

val create :
  Vs_sim.Sim.t ->
  net ->
  me:Proc_id.t ->
  universe:int list ->
  config:Endpoint.config ->
  unit ->
  t

val value : t -> int
(** Local replica value (readable in any mode). *)

val increment : t -> by:int -> (unit, [ `Not_serving ]) result
(** External operation: allowed only in Normal mode. *)

val obj : t -> (payload, ann) Group_object.t
(** The object's group-object runtime: its identity, mode, history and
    lifecycle. *)
