(** Composable filters over a recorded event stream.

    A query is a predicate on {!Recorder.entry}; the combinators compose
    predicates and {!run} applies one while preserving stream order.  All
    identity matching goes through the typed comparators of {!Event}, so a
    query never depends on rendering. *)

type t = Recorder.entry -> bool

val all : t

val none : t

val ( &&& ) : t -> t -> t
(** Conjunction. *)

val ( ||| ) : t -> t -> t
(** Disjunction. *)

val any : t list -> t
(** Disjunction of a list ([none] when empty). *)

val mentions_proc : Event.proc -> t
(** The event's {!Event.procs} include the given process (members of
    [Propose]/[Install] count). *)

val on_node : int -> t
(** Any mentioned process lives on the node, whatever its incarnation. *)

val mentions_vid : Event.vid -> t

val about_msg : Event.msg -> t
(** Data-path events carrying exactly this (origin, seq) identity. *)

val carries_msg : t
(** Data-path events carrying any correlation identity. *)

val of_type : string -> t
(** Match on {!Event.type_name} (["send"], ["install"], …). *)

val of_component : string -> t
(** Match on {!Event.component} (["net"], ["gms"], …). *)

val between : t0:float -> t1:float -> t
(** Inclusive sim-time window. *)

val run : t -> Recorder.entry list -> Recorder.entry list
(** Filter, preserving stream order. *)

val count : t -> Recorder.entry list -> int
