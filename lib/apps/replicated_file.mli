(** Quorum-voted replicated file — the paper's first example group object
    (Section 3).

    Each replica carries a vote; a set of processes defines a {e quorum}
    when it holds a majority of all votes, which can happen in at most one
    concurrent view.  The mode interpretation is the paper's:

    - a quorum view is Normal mode: reads and writes are served;
    - a non-quorum view is Reduced mode: reads (possibly stale) only;
    - a view in which some replicas are out of date is Settling: replicas
      exchange version reports, the freshest holder ships the content to the
      laggards, and everyone reconciles.

    With respect to writes the object behaves as a one-copy file: a write
    needs a quorum, any later quorum intersects it, and the settling
    protocol adopts the highest version found — so no divergence can arise
    and the state-merging problem is structurally absent (writes are
    primary-partition-like, reads remain available everywhere; experiment
    E7 measures that trade-off, claim C3).

    Content is persisted per node, so processes recovering from a total
    failure solve the state-creation problem by the same version-report
    protocol over their persisted replicas. *)

module Proc_id = Vs_net.Proc_id
module Endpoint = Vs_vsync.Endpoint

type payload

type ann

type net = (payload, ann) Evs_core.Evs.net

val make_net : Vs_sim.Sim.t -> Vs_net.Net.config -> net

type config = {
  votes : int -> int;    (** votes held by a node's replica *)
  total_votes : int;     (** sum over the universe *)
}

val uniform_votes : universe:int list -> config
(** One vote per node. *)

type t

val create :
  Vs_sim.Sim.t ->
  net ->
  me:Proc_id.t ->
  universe:int list ->
  config:Endpoint.config ->
  file:config ->
  store:Vs_store.Store.t ->
  unit ->
  t
(** A recovering process re-reads its persisted replica from [store]. *)

val read : t -> (string * int, [ `Not_serving ]) result
(** External operation: (content, version).  Served in Normal and Reduced
    mode — stale data is allowed for reads. *)

val write : t -> string -> (unit, [ `Not_serving ]) result
(** External operation: served only in Normal mode (quorum present and
    settled).  The write is applied when its totally-ordered message is
    delivered; the version number is assigned at delivery. *)

val version : t -> int

val obj : t -> (payload, ann) Group_object.t
(** The file's group-object runtime: its identity, mode, history and
    lifecycle. *)
