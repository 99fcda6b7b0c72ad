(** Partitionable key-value store with pluggable state-merge policies.

    The store favours availability: any view serves reads and writes, so
    concurrent partitions diverge and the union of partitions poses exactly
    the {e state merging} problem of Section 4 — "an application-specific
    decision has to be taken in defining a new global state that somehow
    reconciles the divergence".  That decision is the {!policy}:

    - {!Lww}: per key, the write with the highest (counter, node) stamp
      wins — convergent and symmetric;
    - {!Primary_subview}: the largest up-to-date cluster's state replaces
      everything — the "primary partition wins wholesale" school;
    - {!Custom}: a user function folds the divergent values per key.

    Writes within a view are totally ordered, so replicas of one view never
    diverge; the settling protocol exchanges full dumps and applies the
    policy deterministically at every member. *)

module Proc_id = Vs_net.Proc_id
module Endpoint = Vs_vsync.Endpoint

type stamp = { counter : int; origin : int }
(** Write stamp: (logical counter, origin node); totally ordered. *)

type policy =
  | Lww
  | Primary_subview
  | Custom of (string -> string * stamp -> string * stamp -> string * stamp)
      (** [f key a b] picks or combines two divergent candidates; it must be
          associative and commutative for convergence. *)

type payload

type ann

type net = (payload, ann) Evs_core.Evs.net

val make_net : Vs_sim.Sim.t -> Vs_net.Net.config -> net

type t

val create :
  Vs_sim.Sim.t ->
  net ->
  me:Proc_id.t ->
  universe:int list ->
  ?on_apply:(origin:int -> key:string -> value:string -> unit) ->
  config:Endpoint.config ->
  policy:policy ->
  unit ->
  t
(** [?on_apply] fires once per Put applied to this replica's state (own and
    remote writes alike) — the hook load experiments use to count
    deliveries and sample end-to-end write latency without touching the
    store's behaviour. *)

val put : t -> key:string -> value:string -> (unit, [ `Not_serving ]) result
(** External operation: Normal mode only (briefly refused while settling). *)

val get : t -> key:string -> (string * stamp) option
(** Local read, any mode. *)

val keys : t -> string list

val obj : t -> (payload, ann) Group_object.t
(** The store's group-object runtime: its identity, mode, history and
    lifecycle. *)
