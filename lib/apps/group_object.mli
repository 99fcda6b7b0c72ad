(** Group-object runtime: the application model of Section 3 made concrete.

    A group object couples an enriched-view-synchrony endpoint with a mode
    machine and the shared-state classifier, and structures the application
    after the Section 6.2 methodology:

    - the object declares its Normal-mode condition ({!spec.target_of}) and
      when a view change requires settling ({!spec.reconfigure_policy});
    - on every view change the runtime steps the mode machine; if the
      process lands in Settling it classifies the shared-state problem from
      the enriched view, records the settle ({!settles}), merges the view's
      sv-sets if it is the view coordinator (marking the processes engaged
      in the joint reconstruction, so that later arrivals can tell a
      creation-in-progress from a rebirth: the paper's case (ii) vs (iii)),
      and hands the problem to the application's [on_settle], which runs
      the internal operations (state transfer / creation / merge);
    - the internal operations usually start with a {!round}: every member
      reports its local state, stamped with the view, and the reports come
      back together once all members have sent theirs;
    - the application calls {!complete_settling} when its internal
      operations succeed; the runtime performs the Reconcile transition and
      merges the subviews of the process's sv-set (external operations run
      within a subview; a completed internal operation merges the subviews
      involved).

    An application built on the runtime exposes its object ([obj]); the
    identity, mode and lifecycle of every application go through it. *)

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
}

type ('a, 'ann) t

val create :
  Vs_sim.Sim.t ->
  ('a, 'ann) Evs.net ->
  me:Proc_id.t ->
  universe:int list ->
  config:Endpoint.config ->
  spec:'ann spec ->
  callbacks:('a, 'ann) callbacks ->
  ('a, 'ann) t

val me : ('a, 'ann) t -> Proc_id.t

val evs : ('a, 'ann) t -> ('a, 'ann) Evs.t

val eview : ('a, 'ann) t -> E_view.t

val mode : ('a, 'ann) t -> Mode.t

val machine : ('a, 'ann) t -> Mode.Machine.t

val history : ('a, 'ann) t -> History.t

val settles : ('a, 'ann) t -> (Classify.problem * E_view.t) list
(** Every entry into Settling, oldest first: the local classification and
    the enriched view it was made from. *)

val multicast : ('a, 'ann) t -> ?order:Endpoint.order -> 'a -> unit

val set_annotation : ('a, 'ann) t -> 'ann option -> unit

val would_serve_all : ('a, 'ann) t -> Proc_id.t list -> bool
(** The spec's Normal condition as a predicate (what the classifier uses). *)

val complete_settling : ('a, 'ann) t -> unit
(** Internal operations finished: take the Reconcile transition and — if
    this process is the smallest member of its sv-set — request the
    SubviewMerge of the sv-set's subviews.  No-op if not Settling. *)

val is_alive : ('a, 'ann) t -> bool

val leave : ('a, 'ann) t -> unit

val kill : ('a, 'ann) t -> unit

(** {2 Settle rounds} *)

type 'r round
(** One Section 6.2 report exchange: each member's report of type ['r],
    keyed to the view the round was opened in. *)

val round : ('a, 'ann) t -> 'r round
(** A new round keyed to the current view. *)

val round_vid : 'r round -> View.Id.t
(** The view stamp the round's reports must carry. *)

val report :
  'r round -> vid:View.Id.t -> sender:Proc_id.t -> 'r -> (Proc_id.t * 'r) list option
(** Record [sender]'s report stamped [vid] and return {!reports}.  A report
    stamped with another view is refused ([None]); a sender's later report
    replaces its earlier one. *)

val reports : 'r round -> (Proc_id.t * 'r) list option
(** The reports in member order, once every current member has reported
    while the round's view is still installed; [None] before. *)
