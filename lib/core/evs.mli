(** Enriched view synchrony service (Section 6 of the paper).

    Wraps a view-synchronous endpoint and maintains the subview / sv-set
    structure on top of it:

    - a joining process appears in a new view inside a fresh singleton
      subview in a fresh singleton sv-set;
    - {!svset_merge} and {!subview_merge} ride on totally-ordered multicast,
      so e-view changes within a view are totally ordered at all members
      (Property 6.1) and, being ordinary messages, define consistent cuts
      (Property 6.2);
    - across view changes each member's subview and sv-set identity is
      carried in its flush annotation, and every member deterministically
      rebuilds the structure, preserving it (Property 6.3).

    The system attaches no meaning to the structure; it maintains it on
    behalf of applications — typically following the paper's Section 6.2
    methodology: run external operations within a subview, run internal
    (reconciliation) operations across the subviews of one sv-set, and merge
    the subviews when the internal operation completes. *)

module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module Endpoint = Vs_vsync.Endpoint

type 'a wire
(** EVS wire payload wrapping the application payload ['a]. *)

type 'ann evs_ann
(** EVS flush annotation wrapping the application annotation ['ann]. *)

type ('a, 'ann) net = (('a wire, 'ann evs_ann) Vs_vsync.Wire.t) Vs_net.Net.t
(** The network type an EVS stack runs over. *)

val make_net :
  ?payload_size:('a -> int) ->
  ?ann_size:('ann -> int) ->
  ?ident:('a -> Vs_obs.Event.msg option) ->
  Vs_sim.Sim.t ->
  Vs_net.Net.config ->
  ('a, 'ann) net
(** Convenience constructor threading byte-accounting — and, via [?ident],
    the (origin, seq) correlation identity of application payloads — through
    the EVS wire wrappers. *)

type cause =
  | View_change       (** a new view was installed *)
  | Svset_merged of E_view.Svset_id.t    (** an SV-SetMerge was applied *)
  | Subview_merged of E_view.Subview_id.t  (** a SubviewMerge was applied *)

val cause_label : cause -> string
(** ["view"], ["svset-merge <id>"] or ["subview-merge <id>"] — the [cause]
    of the [Eview] observability event. *)

type 'ann eview_event = {
  eview : E_view.t;
  cause : cause;
  annotations : (Proc_id.t * 'ann option) list;
      (** application annotations collected at the flush (empty for
          within-view e-view changes) *)
  priors : (Proc_id.t * View.Id.t) list;
}

type ('a, 'ann) callbacks = {
  on_eview : 'ann eview_event -> unit;
  on_message : sender:Proc_id.t -> 'a -> unit;
}

type ('a, 'ann) t

val create :
  Vs_sim.Sim.t ->
  ('a, 'ann) net ->
  me:Proc_id.t ->
  universe:int list ->
  config:Endpoint.config ->
  callbacks:('a, 'ann) callbacks ->
  ('a, 'ann) t

val me : ('a, 'ann) t -> Proc_id.t

val eview : ('a, 'ann) t -> E_view.t
(** Current enriched view. *)

val view : ('a, 'ann) t -> View.t

val my_svset : ('a, 'ann) t -> E_view.svset

val multicast : ('a, 'ann) t -> ?order:Endpoint.order -> 'a -> unit

val multicast_subview : ('a, 'ann) t -> ?order:Endpoint.order -> 'a -> unit
(** Multicast scoped to the caller's current subview: only processes that
    are in that subview when the message arrives deliver it — the Section
    6.2 methodology's "external operations are performed within a subview".
    Scoping is evaluated at delivery time, so a process that has since
    moved to another subview (an application merge) does not consume it. *)

val svset_merge : ('a, 'ann) t -> E_view.Svset_id.t list -> unit
(** Request an SV-SetMerge.  Applied — and announced through [on_eview] with
    the new identifier — when the totally-ordered request is delivered; a
    request that races with a view change, or whose identifiers no longer
    exist, has no effect. *)

val subview_merge : ('a, 'ann) t -> E_view.Subview_id.t list -> unit
(** Request a SubviewMerge; no effect unless the (surviving) subviews all
    belong to the same sv-set. *)

val set_annotation : ('a, 'ann) t -> 'ann option -> unit
(** Application annotation piggybacked on this process's next flush. *)

val is_blocked : ('a, 'ann) t -> bool

val is_alive : ('a, 'ann) t -> bool

val leave : ('a, 'ann) t -> unit

val kill : ('a, 'ann) t -> unit

val corrupt : ('a, 'ann) t -> Endpoint.corruption -> string
(** Apply a transient state corruption to the underlying endpoint; returns
    the corrupted field name (see {!Endpoint.corrupt}). *)

val endpoint_stats : ('a, 'ann) t -> Endpoint.stats
