(** Determining the last process(es) to fail (Skeen [11]), for state
    creation after total failures.

    "Identifying which local state is to be used for recreation of the
    others may require determining the last process to fail" (Section 4).
    Every process persists the identifier of each view it installs; after a
    total failure the recovering processes exchange their persisted logs.
    The processes whose recorded last view is maximal were the last
    operational group — their persisted application state is the freshest —
    so recreation adopts a survivor of that view if one is present, and must
    otherwise wait for one to recover.

    The module is a pure decision procedure over persisted logs plus the
    persistence helpers; test_apps drives it through the store. *)

module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View

(** {2 Persistence} *)

val record_view : Vs_store.Store.t -> node:int -> View.t -> unit
(** Append a view installation to the node's persisted log. *)

val persisted_log : Vs_store.Store.t -> node:int -> View.Id.t list
(** The node's persisted view identifiers, oldest first. *)

val wipe : Vs_store.Store.t -> node:int -> unit

(** {2 Decision procedure} *)

type report = { r_proc : Proc_id.t; r_last : View.Id.t option }
(** A recovering process's claim: the last view its node persisted. *)

type decision =
  | Adopt_from of Proc_id.t list
      (** the reporters that were in the maximal (last) view: any of them
          holds the freshest state *)
  | Wait_for of Proc_id.t list
      (** no reporter was in the maximal view known so far: recreation must
          wait for (a later incarnation of) one of these processes *)
  | Fresh_start
      (** nobody has any persisted history: create the initial state *)

val decide : known_last_views:(View.Id.t * View.t) list -> report list -> decision
(** [known_last_views] maps view ids to compositions (reporters supply the
    full view from their logs); the maximal view id among all reports is the
    last gasp of the previous incarnation of the group.  If some reporter's
    node was a member of it, adopt from those; otherwise name the members
    that must be awaited. *)

val decide_from_store :
  Vs_store.Store.t -> reporters:Proc_id.t list -> decision
(** Convenience: read every reporter's persisted log from the store and
    decide. *)
