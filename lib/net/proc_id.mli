(** Process identifiers.

    Following the paper's system model (Section 2), recovery of a crashed
    process is modelled by assigning it a new identifier: a process is a
    (node, incarnation) pair, and a recovered process — a higher incarnation
    on the same node — is a brand-new group member with no protocol state. *)

type t = Vs_obs.Event.proc = { node : int; inc : int }
[@@deriving eq, ord, show]
(** The observability schema's process record itself, so events carry
    protocol ids with no conversion. *)

val make : node:int -> inc:int -> t

val initial : int -> t
(** First incarnation on a node. *)

val to_string : t -> string
(** {!Vs_obs.Event.proc_to_string}: "p3" for node 3, incarnation 0, and
    "p3.1" for incarnation 1. *)

val sort : t list -> t list
(** Sorted duplicate-free list — the canonical representation of a
    membership. *)

val min_member : t list -> t option
(** The smallest identifier; used for coordinator election. *)

module Map : Map.S with type key = t
module Set : Set.S with type elt = t

module Tbl = Vs_obs.Event.Proc_tbl
(** Hash tables keyed by identifier, with typed equality. *)
