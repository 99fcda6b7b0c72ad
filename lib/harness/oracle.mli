(** Global run oracle: records what every process multicast, delivered,
    installed and (under enriched view synchrony) saw as its e-view, then
    judges the whole run — the view-synchrony specification of Section 2
    and the enriched-view properties of Section 6 — as structured
    verdicts that name the processes and views they concern.

    Message identity is (original sender, per-sender sequence number) —
    assigned by the cluster at multicast time, independent of the wire
    protocol, so the checks exercise the implementation rather than trusting
    it. *)

module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module E_view = Evs_core.E_view

type msg_id = Vs_obs.Event.msg = { origin : Proc_id.t; mseq : int }
(** The observability schema's message identity itself — what the clusters
    pass straight to [Net]'s [?idents] hook, so oracle verdicts and
    data-path events correlate exactly. *)

val msg_id_to_string : msg_id -> string
(** {!Vs_obs.Event.msg_to_string}: ["p0#3"]. *)

type violation = Vs_obs.Explain.violation
(** A structured verdict: which property broke and the identities it names,
    plus a one-line [detail] rendering. *)

type t

val create : unit -> t

(** {2 Recording} *)

val record_send : t -> ?order:[ `Fifo | `Total ] -> msg_id -> unit
(** Default [`Fifo]. *)

val record_delivery :
  t -> proc:Proc_id.t -> vid:View.Id.t -> msg_id -> time:float -> unit

val record_install :
  t -> proc:Proc_id.t -> view:View.t -> prior:View.Id.t -> time:float -> unit
(** [prior] is the view the process was in before this install (its initial
    singleton view id for the first install). *)

val record_corruption :
  t -> proc:Proc_id.t -> field:string -> time:float -> unit
(** A transient state corruption was injected into [proc]'s [field] (the
    stable name from {!Vs_vsync.Endpoint.corruption_field}) at [time].
    Arms the {!stabilization} check. *)

val corruptions : t -> (Proc_id.t * string * float) list
(** Recorded corruptions in injection order. *)

type eview_record = {
  er_proc : Proc_id.t;
  er_time : float;
  er_eview : E_view.t;
  er_cause : string;  (** {!Evs_core.Evs.cause_label} of the event *)
}

val record_eview :
  t -> proc:Proc_id.t -> eview:E_view.t -> cause:string -> time:float -> unit
(** [proc] saw [eview] at [time]; a view change also calls
    {!record_install}. *)

val eview_records : t -> eview_record list
(** In recording order; [[]] for plain view synchrony. *)

val eview_changes : t -> int
(** Within-view e-view changes: the records with [eseq > 0]. *)

(** {2 Checks — each returns the violations found, empty when the
    property holds} *)

val agreement_violations : t -> violation list
(** Property 2.1: processes that survive from one view to the same next view
    delivered the same set of messages in the old view. *)

val uniqueness_violations : t -> violation list
(** Property 2.2: across all processes, each message was delivered in at
    most one view. *)

val integrity_violations : t -> violation list
(** Property 2.3: at-most-once delivery per process, and only of messages
    that were actually multicast. *)

val fifo_violations : t -> violation list
(** Per-sender delivery order of FIFO-class messages respects the multicast
    order (gaps allowed only across failures, never inversions).  Messages
    sent totally ordered are exempt: they are sequenced through the
    coordinator and carry no cross-class ordering promise — the paper
    imposes no ordering conditions at all (Section 2). *)

val total_order_violations : t -> violation list
(** Messages sent with total order and delivered within one view reach all
    their receivers in one consistent relative order. *)

val all_violations : t -> violation list
(** Every check above, concatenated in that order. *)

val check_all : t -> string list
(** The [detail] of each of {!all_violations}. *)

(** {2 Section 6 checks — none fire on a plain run, which records no
    e-views}

    [since] (default: the whole run) restricts a check to the e-view records
    at or after that time; the stabilization judge uses it to quarantine a
    transient-fault recovery window. *)

val eview_order_violations : ?since:float -> t -> violation list
(** Property 6.1: within a view, all processes see the same sequence of
    e-view changes (positions, causes and resulting structures).  A verdict
    names the two processes that disagree and the view. *)

val structure_violations : ?since:float -> t -> violation list
(** Property 6.3: across a view change, survivors that shared a subview
    (sv-set) still share it, and survivors that did not were not joined
    silently.  A transition whose old-view record predates [since] is
    exempt.  A verdict names the observer and the pair (sorted, without
    repeats) and the old and new views. *)

val eview_invariant_violations : t -> since:float -> n:int -> violation list
(** Every e-view recorded at or after [since] passes {!E_view.validate},
    and the {!Evs_core.Classify.enriched} verdict a majority-quorum
    application of [n] nodes derives from it is well-formed.  A verdict
    names the process and its view. *)

(** {2 Stabilization — bounded recovery from transient faults} *)

type stabilization = {
  st_bound : int;  (** recovery bound, in installed views *)
  st_first_fault : float;  (** first recorded corruption *)
  st_last_fault : float;  (** last recorded corruption *)
  st_views : int;
      (** distinct views first installed strictly after the last fault *)
  st_cut : float option;
      (** when legality must have resumed: first-install time of the
          [st_bound]-th fresh view, [None] when fewer were ever installed *)
  st_quarantined : violation list;
      (** violations attributed to the recovery window — expected noise *)
  st_residual : violation list;
      (** real failures: violations predating the first fault (original
          property) and violations persisting in views past the bound
          (relabeled [Stabilization], detail naming the corrupted
          fields).  A run with quarantined violations but fewer than
          [st_bound] fresh views never reconverged and gets a synthesized
          [Stabilization] violation. *)
}

val stabilization : t -> ?bound:int -> violation list -> stabilization option
(** Classify [violations] (typically {!all_violations}) against the
    recorded corruptions.  [None] when no corruption was recorded — the
    plain verdicts stand as-is.  Default [bound] is 2: the view-synchrony
    state machine rebuilds all per-view state at each install, so one view
    flushes the damage and the next must be legal. *)

(** {2 Introspection} *)

val deliveries_of : t -> proc:Proc_id.t -> (View.Id.t * msg_id) list

val installs_of : t -> proc:Proc_id.t -> (View.t * View.Id.t) list
(** (view, prior) pairs in order. *)

val total_deliveries : t -> int

val total_installs : t -> int

val install_counts : t -> (Proc_id.t * int) list
(** View installations per process identity, sorted by process. *)

val distinct_views : t -> int
