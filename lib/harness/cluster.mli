(** A cluster of view-synchronous members under oracle observation, for
    plain view synchrony ({!vsync}) and enriched view synchrony ({!evs})
    alike.

    Payloads are oracle message identities; every multicast, delivery and
    view installation is recorded, so a run can be driven with arbitrary
    fault scripts and traffic and then checked against Properties 2.1–2.3
    — which hold for EVS runs too.  An EVS cluster also records every
    e-view event at every process, and its checkers judge the Section 6
    properties:

    - {!check_total_order} (Property 6.1): within a view, all processes see
      the same sequence of e-view changes — same positions, same causes,
      same resulting structures;
    - {!check_structure} (Property 6.3): across a view change, processes
      that shared a subview (sv-set) and survive together still share it,
      and processes that did {e not} share one have not been merged silently
      (composition grows only under application control).

    A plain cluster records no e-views, so those checkers find nothing.
    This is the workhorse of the randomized protocol tests, of
    {!Driver.run_schedule} and of experiments E2–E4, E9/E10, E11 and T. *)

module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module E_view = Evs_core.E_view
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

(** {2 Section 6} *)

type eview_record = {
  er_proc : Proc_id.t;
  er_time : float;
  er_eview : E_view.t;
  er_cause : string;
}

val eview_records : 'a t -> eview_record list
(** Everything every process saw, in recording order; [[]] on a plain
    cluster. *)

val check_total_order : ?since:float -> 'a t -> string list
(** [since] (default: the whole run) restricts the check to e-view records
    at or after that time — the stabilization oracle uses it to quarantine
    records inside a transient-fault recovery window. *)

val check_structure : ?since:float -> 'a t -> string list
(** Same [since] semantics as {!check_total_order}; a view transition whose
    old-view record predates [since] is exempt entirely. *)

val eview_changes_total : 'a t -> int
(** Count of within-view e-view changes across all processes (E9); 0 on a
    plain cluster. *)
