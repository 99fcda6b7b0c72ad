(** Views and view identifiers.

    A view identifier is an (epoch, proposer) pair ordered lexicographically,
    so identifiers from concurrent partitions are always comparable and a
    proposer can outbid any identifier it has seen by bumping the epoch.
    Views are sorted member lists; the coordinator of a view is its smallest
    member. *)

module Id : sig
  type t = Vs_obs.Event.vid = { epoch : int; proposer : Vs_net.Proc_id.t }
  [@@deriving eq, ord, show]
  (** The observability schema's view-id record itself. *)

  val initial : Vs_net.Proc_id.t -> t
  (** Epoch-0 identifier of a process's boot-time singleton view. *)

  val make : epoch:int -> proposer:Vs_net.Proc_id.t -> t

  val to_string : t -> string
  (** {!Vs_obs.Event.vid_to_string}: "v4@p2.1". *)
end

type t = { id : Id.t; members : Vs_net.Proc_id.t list } [@@deriving eq, show]
(** [members] is sorted and duplicate-free. *)

val make : Id.t -> Vs_net.Proc_id.t list -> t
(** Sorts and dedups the members; they must be non-empty. *)

val singleton : Vs_net.Proc_id.t -> t
(** A process's initial view: itself alone, epoch 0. *)

val mem : Vs_net.Proc_id.t -> t -> bool

val size : t -> int

val coordinator : t -> Vs_net.Proc_id.t
(** Smallest member. *)

val to_string : t -> string
