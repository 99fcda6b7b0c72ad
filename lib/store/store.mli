(** Per-node stable storage.

    Models the "permanent part of the local state that survives across
    failures" of Section 3: data written here is keyed by node (not by
    incarnation), so a recovered process finds what its predecessor wrote.
    Used by the replicated file (versioned content) and by the last-to-fail
    protocol (persisted view histories) to solve state creation after total
    failures. *)

type t

val create : unit -> t

val put : t -> node:int -> key:string -> string -> unit

val get : t -> node:int -> key:string -> string option

val delete : t -> node:int -> key:string -> unit

val keys : t -> node:int -> string list
(** Sorted keys present on a node. *)
