(** Group-object runtime: the application model of Section 3 made concrete.

    A group object couples an enriched-view-synchrony endpoint with a mode
    machine and the shared-state classifier, and structures the application
    after the Section 6.2 methodology:

    - the object declares its Normal-mode condition ({!spec.target_of}) and
      when a view change requires settling ({!spec.reconfigure_policy});
    - on every view change the runtime steps the mode machine; if the
      process lands in Settling it classifies the shared-state problem from
      the enriched view and hands it to the application's [on_settle], which
      runs the internal operations (state transfer / creation / merge);
    - the application calls {!complete_settling} when its internal
      operations succeed; the runtime performs the Reconcile transition and
      merges the subviews of the process's sv-set (external operations run
      within a subview; a completed internal operation merges the subviews
      involved);
    - {!begin_joint_settling} merges the view's sv-sets first, marking the
      processes engaged in the joint reconstruction so that later arrivals
      can tell a creation-in-progress from a rebirth (the paper's case (ii)
      vs (iii)). *)

module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module Evs = Evs_core.Evs
module E_view = Evs_core.E_view
module Mode = Evs_core.Mode
module Classify = Evs_core.Classify
module History = Evs_core.History
module Endpoint = Vs_vsync.Endpoint

type 'ann spec = {
  target_of : Proc_id.t list -> Mode.target;
      (** the Normal-mode condition on a membership (e.g. quorum) *)
  reconfigure_policy : Mode.reconfigure_policy;
  settled_ann : 'ann option -> bool;
      (** whether a member reporting this annotation holds settled state —
          refines the classification of singleton subviews *)
}

type ('a, 'ann) callbacks = {
  on_mode : Mode.Machine.step -> unit;
      (** a mode transition was taken (not called for no-change steps) *)
  on_settle : Classify.problem -> 'ann Evs.eview_event -> unit;
      (** the process entered (or re-entered) Settling: run internal ops *)
  on_message : sender:Proc_id.t -> 'a -> unit;
  on_eview : 'ann Evs.eview_event -> unit;  (** every e-view event, raw *)
}

type observation =
  | Obs_mode of Mode.Machine.step
  | Obs_settle of {
      problem : Classify.problem;  (** the enriched-view classification *)
      eview : E_view.t;
    }
(** What an external observer (the experiment harness) sees of the runtime:
    every mode transition and every settle with its local classification. *)

type ('a, 'ann) t

val create :
  Vs_sim.Sim.t ->
  ('a, 'ann) Evs.net ->
  me:Proc_id.t ->
  universe:int list ->
  config:Endpoint.config ->
  spec:'ann spec ->
  callbacks:('a, 'ann) callbacks ->
  ?observer:(observation -> unit) ->
  unit ->
  ('a, 'ann) t

val me : ('a, 'ann) t -> Proc_id.t

val evs : ('a, 'ann) t -> ('a, 'ann) Evs.t

val eview : ('a, 'ann) t -> E_view.t

val mode : ('a, 'ann) t -> Mode.t

val machine : ('a, 'ann) t -> Mode.Machine.t

val history : ('a, 'ann) t -> History.t

val multicast : ('a, 'ann) t -> ?order:Endpoint.order -> 'a -> unit

val set_annotation : ('a, 'ann) t -> 'ann option -> unit

val would_serve_all : ('a, 'ann) t -> Proc_id.t list -> bool
(** The spec's Normal condition as a predicate (what the classifier uses). *)

val begin_joint_settling : ('a, 'ann) t -> unit
(** If this process is the view coordinator, request an SV-SetMerge of all
    the view's sv-sets, marking the joint reconstruction. *)

val complete_settling : ('a, 'ann) t -> unit
(** Internal operations finished: take the Reconcile transition and — if
    this process is the smallest member of its sv-set — request the
    SubviewMerge of the sv-set's subviews.  No-op if not Settling. *)

val is_alive : ('a, 'ann) t -> bool

val leave : ('a, 'ann) t -> unit

val kill : ('a, 'ann) t -> unit
