(** Enriched views: views structured into subviews and subview-sets.

    This is the data model of Section 6.1 of the paper.  Within a view,
    every process belongs to exactly one subview and every subview to
    exactly one sv-set.  Subviews and sv-sets shrink arbitrarily (failures)
    but grow only through the application-driven merge operations, and their
    identity survives view changes (Property 6.3): processes that shared a
    subview (sv-set) before a view change still share it after.

    Identifiers: a process's boot-time singleton subview (sv-set) is named
    after the process itself; a merge creates an identifier stamped with the
    view and the e-view change number that produced it, which every member
    computes identically because e-view changes are totally ordered. *)

module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View

module Subview_id : sig
  type t =
    | Fresh of Proc_id.t
    | Merged of { view : View.Id.t; seq : int }
    | Split of { base : t; view : View.Id.t }
        (** When a partition splits a subview and the fragments later meet
            again in one view, they must stay distinct (subviews grow only
            under application control): each fragment's identifier is
            qualified by the view it came through. *)
  [@@deriving eq, ord, show]

  val to_string : t -> string
end

module Svset_id : sig
  type t =
    | Fresh of Proc_id.t
    | Merged of { view : View.Id.t; seq : int }
    | Split of { base : t; view : View.Id.t }
  [@@deriving eq, ord, show]

  val to_string : t -> string
end

type subview = { sv_id : Subview_id.t; sv_members : Proc_id.t list }
[@@deriving eq, show]
(** [sv_members] sorted and non-empty. *)

type svset = { ss_id : Svset_id.t; ss_subviews : Subview_id.t list }
[@@deriving eq, show]
(** [ss_subviews] sorted and non-empty. *)

type structure = { subviews : subview list; svsets : svset list }
[@@deriving eq, show]
(** Both lists sorted by identifier. *)

type t = { view : View.t; structure : structure; eseq : int } [@@deriving eq, show]
(** An enriched view: [eseq] counts e-view changes within [view] (0 at view
    installation). *)

(** {2 Construction} *)

type member_tag = { m_sv : Subview_id.t; m_ss : Svset_id.t }
(** What each member reports about itself at a view change. *)

type member_report = {
  r_tag : member_tag option;  (** [None] for a fresh joiner *)
  r_prior : View.Id.t option; (** the view the member comes from *)
}

val initial : Proc_id.t -> t
(** The enriched singleton view a process boots in. *)

val rebuild : View.t -> (Proc_id.t * member_report) list -> t
(** Build the successor structure after a view change from each member's
    reported subview/sv-set identity; members without a report get fresh
    singletons.  This is the deterministic computation that implements
    Property 6.3: members reporting the same identity {e from the same prior
    view} share a subview (sv-set); equal identities arriving from different
    prior views are fragments of a split and stay apart, with qualified
    identifiers. *)

type snapshot_report = {
  sr_snapshot : t option;     (** the member's enriched view at flush time *)
  sr_prior : View.Id.t option;
}

val rebuild_from_snapshots : View.t -> (Proc_id.t * snapshot_report) list -> t
(** Like {!rebuild}, but each member reports its whole enriched view.  Within
    a prior-view group the snapshot with the highest [eseq] wins and assigns
    every group member its subview/sv-set: e-view changes are totally
    ordered, so the latest snapshot subsumes the others — this is what makes
    the structure immune to a member having flush-acked before an in-flight
    merge reached it (the merge it missed was synchronised into its view by
    the flush, and the freshest peer's snapshot accounts for it). *)

val apply_svset_merge :
  t -> Svset_id.t list -> (t * Svset_id.t, [ `No_effect ]) result
(** SV-SetMerge (Section 6.1): union the given sv-sets into a new one.
    [`No_effect] if fewer than two of the identifiers still exist. *)

val apply_subview_merge :
  t -> Subview_id.t list -> (t * Subview_id.t, [ `No_effect ]) result
(** SubviewMerge: union the given subviews into a new subview.  No effect
    unless at least two of them exist and all existing ones belong to the
    same sv-set; the result stays in that sv-set. *)

(** {2 Queries} *)

val members : t -> Proc_id.t list

val svset_ids : t -> Svset_id.t list
(** Every sv-set's identifier, in structure order — what an application
    passes to an SV-SetMerge of everything. *)

val subview_ids : t -> Subview_id.t list
(** Every subview's identifier, in structure order. *)

val subview_of : Proc_id.t -> t -> subview option

val svset_of_subview : Subview_id.t -> t -> svset option

val svset_members : svset -> t -> Proc_id.t list
(** Union of the member sets of the sv-set's subviews. *)

val is_degenerate : t -> bool
(** One sv-set containing one subview containing every member — the case
    equivalent to a traditional flat view. *)

val validate : t -> (unit, string) result
(** Check the structural invariants: subviews partition the membership,
    sv-sets partition the subviews, lists sorted, ids consistent. *)

val to_string : t -> string
(** E.g. "v3@p0{[p0,p1][p2]}{[p3]}" — sv-sets in braces, subviews in
    brackets. *)
