(** Execution modes and transitions of the application model (Section 3,
    Figure 1 of the paper).

    A group-object process is always in one of three modes: NORMAL (all
    external operations), REDUCED (a subset of external operations) or
    SETTLING (internal operations only).  The legal transitions are exactly
    the six edges of Figure 1:

    {v
      Normal   --Failure-->     Reduced
      Normal   --Reconfigure--> Settling
      Reduced  --Repair-->      Settling
      Settling --Failure-->     Reduced
      Settling --Reconfigure--> Settling
      Settling --Reconcile-->   Normal
    v}

    Reconcile is the only transition that is synchronous with the
    computation — it happens when the application finishes solving its
    shared-state problem — so the {!Machine} exposes it as an explicit call,
    while the others are derived from view-change events. *)

type t = Normal | Reduced | Settling [@@deriving eq, ord, show]

type transition = Failure | Repair | Reconfigure | Reconcile

val equal_transition : transition -> transition -> bool

val to_string : t -> string

val transition_to_string : transition -> string

val edge : from:t -> into:t -> transition option
(** The Figure-1 edge between two distinct modes, if legal; [None] when
    [from = into] (staying put) or when the move is illegal (e.g. Reduced →
    Normal, which must pass through Settling). *)

val is_legal : from:t -> into:t -> bool
(** Staying in the same mode is legal; otherwise an edge must exist. *)

(** {2 Service targets}

    The mode function of the paper depends on the current view; we factor it
    as a {e target}: can this membership support all external operations, or
    only the reduced subset?  (E.g. "defines a quorum" for the replicated
    file.)  The machine derives the actual mode, inserting the mandatory
    pass through Settling. *)

type target = Serve_all | Serve_reduced [@@deriving eq, show]

type reconfigure_policy =
  | On_any_change   (** every view change needs settling (the parallel
                        database of Section 3) *)
  | On_expansion    (** only views with new members need settling (the
                        replicated file: a shrinking quorum keeps going) *)
  | Never           (** state is view-independent *)

(** {2 Mode machine} *)

module Machine : sig
  type mode = t

  type step = {
    from_mode : mode;
    into_mode : mode;
    cause : transition option;  (** [None] when the mode did not change *)
  }

  type nonrec t

  val create : ?initial:mode -> unit -> t
  (** A fresh process starts Settling: it must obtain the shared state
      before serving. *)

  val mode : t -> mode

  val on_view_change :
    t -> target:target -> expanded:bool -> policy:reconfigure_policy -> step
  (** Derive and take the transition triggered by a view change.
      [expanded] is whether the new view contains processes that were not in
      the previous one. *)

  val reconcile : t -> (step, [ `Not_settling ]) result
  (** The application finished its internal operations: Settling → Normal. *)

  val history : t -> step list
  (** Every step taken, oldest first (including no-change steps). *)

  val transition_counts : t -> (transition * int) list
  (** How many times each Figure-1 edge was taken — the empirical transition
      matrix of experiment E1. *)
end
