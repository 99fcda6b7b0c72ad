(** Fleets of application instances under fault scripts — shared driver for
    the application-level experiments (E1, E5, E7, E8).

    A fleet tracks every instance ever created (dead incarnations included),
    so post-hoc analysis can read any process's history, and interprets
    fault-script actions by killing and re-creating instances. *)

module Proc_id = Vs_net.Proc_id
module History = Evs_core.History

type 'app t

val create :
  Vs_sim.Sim.t ->
  'm Vs_net.Net.t ->
  nodes:int list ->
  spawn:(Proc_id.t -> 'app) ->
  obj:('app -> ('a, 'ann) Vs_apps.Group_object.t) ->
  'app t
(** [spawn] boots an instance as the given incarnation (it must register
    itself on the fleet's network); initial incarnations are created
    immediately, one per node.  [obj] is an instance's group object, through
    which the fleet reads its identity and history and kills it. *)

val live : 'app t -> 'app list

val on_node : 'app t -> int -> 'app option

val all_ever : 'app t -> 'app list

val history_of : 'app t -> Proc_id.t -> History.t option
(** History of any process identity that ever existed in the fleet. *)

val apply_action : 'app t -> Vs_harness.Faults.action -> unit
(** {!Vs_harness.Fleet.apply_action}: crash/recover re-create instances,
    partitions and heals act on the fleet's network. *)

val run_script : 'app t -> Vs_harness.Faults.script -> unit

val every :
  'app t -> start:float -> until:float -> gap:float ->
  (float -> 'app list -> unit) -> unit
(** [every t ~start ~until ~gap f] calls [f time live] at [start],
    [start +. gap], ... for every instant before [until], with the members
    live when it fires.  All the ticks are scheduled up front. *)

(** {2 Open-loop load generation} *)

type load = {
  mutable offered : int;   (** arrivals fired *)
  mutable accepted : int;  (** [submit] returned [true] *)
  mutable rejected : int;  (** [submit] returned [false], or node down *)
}

val open_loop :
  'app t ->
  rng:Vs_util.Rng.t ->
  start:float ->
  until:float ->
  rate:float ->
  clients:int ->
  submit:('app -> client:int -> op:int -> bool) ->
  load
(** Open-loop traffic: Poisson arrivals at [rate] ops/s, attributed to
    [clients] simulated clients pinned round-robin to the fleet's nodes.
    Arrivals never wait for completions — overload appears as latency, not
    as back-pressure on the generator.  [submit app ~client ~op] issues
    operation number [op] (global, 0-based) and reports acceptance.
    Returns live counters; read them once the sim has run past [until]. *)

(** {2 Post-hoc mode analysis} *)

val prior_state_of :
  'app t ->
  Proc_id.t ->
  vid:Vs_gms.View.Id.t ->
  Evs_core.Classify.prior_state * Vs_gms.View.Id.t option
(** The mode a process was in, and the view it came from, just before it
    installed [vid] — reconstructed from its recorded history.  Falls back
    to the process's final recorded state if it died before installing
    [vid] (it was a member of the proposed view but never made it). *)
