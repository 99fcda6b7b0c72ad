(** Simulated asynchronous point-to-point network.

    Models the paper's Section 2 environment: messages between live,
    connected processes arrive after an unpredictable (sampled) delay;
    messages to crashed incarnations or across a partition boundary are lost;
    links may drop or duplicate.  Self-addressed messages are exempt from
    loss and duplication but still go through the event queue, so a process
    never re-enters its own handlers synchronously.

    {!send} and {!send_node} share one transmission path: the send-time
    checks (dead source, partition, loss), the duplication model and the
    arrival check (destination live, nodes connected).  Two rules depend on
    the kind of address, and every seeded run depends on both:
    - "self" is the same incarnation for a process address and the same
      node for a node address;
    - the duplication draw precedes the first delay draw for a process
      address and follows it for a node address.

    The network is polymorphic in the payload ['m]; the protocol stack
    defines one wire-message variant and instantiates a single ['m t] per
    simulation. *)

type 'm t

type 'm envelope = {
  src : Proc_id.t;
  dst : Proc_id.t;
  payload : 'm;
}

type config = {
  delay_min : float;  (** lower bound of the uniform per-message delay *)
  delay_max : float;  (** upper bound *)
  drop_prob : float;  (** independent loss probability per message *)
  dup_prob : float;   (** probability a delivered message is duplicated *)
  byte_delay : float; (** serialization delay per byte (1 / bandwidth); the
                          per-message delay grows by [size_of msg] times
                          this, so bulk transfers cost what they should *)
}

val default_config : config
(** 1–10 ms delay, no loss, no duplication, infinite bandwidth. *)

val check_config : config -> (unit, string) result
(** The rule {!create} enforces: [0 <= delay_min <= delay_max].  Readers of
    untrusted configs (repro artifacts) call it to return an error instead
    of raising. *)

val create :
  ?size_of:('m -> int) ->
  ?describe:('m -> string) ->
  ?idents:('m -> Vs_obs.Event.msg list) ->
  Vs_sim.Sim.t ->
  config ->
  'm t
(** [?describe] names a payload's message kind for Full-level observability
    events (default ["msg"]); it is never called unless the run records at
    [Full] level.  [?idents] is the one identity hook: the stable
    (origin, seq) correlation identities of the application messages a
    payload carries — none for control traffic, one per payload for a
    batch (default [fun _ -> []]).  Like [describe] it is only called under
    [Full] recording, so the off-path send cost is unchanged.  Every
    Send/Recv/Drop/Dup event is emitted once per carried identity (bytes
    attributed to the first) or once identity-less, so lineage conservation
    stays per-payload even when the protocol ships many application
    messages in one wire message.  [?size_of] gives a nominal byte size per
    payload for traffic accounting and the per-byte delay (default 1); it
    is called once per transmission.  Raises [Invalid_argument] when
    {!check_config} rejects [config]. *)

(** {2 Process lifecycle} *)

val register : 'm t -> Proc_id.t -> ('m envelope -> unit) -> unit
(** Bring an incarnation online with its receive handler.  Raises
    [Invalid_argument] if a live incarnation already occupies the node or if
    this incarnation existed before. *)

val crash : 'm t -> Proc_id.t -> unit
(** Kill an incarnation: its handler is removed and in-flight messages to it
    are lost.  Idempotent. *)

val is_live : 'm t -> Proc_id.t -> bool

val fresh_incarnation : 'm t -> int -> Proc_id.t
(** Next unused incarnation identifier for a node (does not register it). *)

(** {2 Partitions} *)

val set_partition : 'm t -> int list list -> unit
(** Install a connectivity oracle: each inner list is a component of node
    ids; unmentioned nodes become singletons.  Messages crossing component
    boundaries — checked both at send and at delivery time — are lost. *)

val heal : 'm t -> unit
(** Remove all partitions (single component). *)

val connected : 'm t -> int -> int -> bool

(** {2 Sending} *)

val send : 'm t -> src:Proc_id.t -> dst:Proc_id.t -> 'm -> unit
(** Fire-and-forget unicast to a specific incarnation. Silently dropped if
    the source is dead, the destination incarnation is not (or no longer)
    live at delivery time, or the nodes are disconnected. *)

val send_node : 'm t -> src:Proc_id.t -> dst_node:int -> 'm -> unit
(** Unicast to whatever incarnation is live on [dst_node] at delivery time —
    how heartbeats find recovered processes without knowing their new
    identifier.  The address is the pseudo-destination
    [{ node = dst_node; inc = -1 }] (rendered ["n<dst_node>"]): Full-level
    Send, Dup and Drop events name it, including a drop at arrival; Recv
    names the incarnation reached. *)

(** {2 Accounting} *)

type stats = private {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;      (** lost to links, partitions or dead endpoints *)
  mutable duplicated : int;
  mutable bytes_sent : int;
}
(** The network's counters, bumped in place as traffic flows; only this
    module writes them. *)

val stats : 'm t -> stats
(** A copy of the counters now: later traffic does not change it, so two
    snapshots subtract to the traffic between them. *)

(** The zero-allocation contract of the send fast path: "path:function"
    names of the guards that run on every send whatever the observability
    level.  Each named function carries the alloc-free annotation (vslint
    rule A1 proves the bodies are allocation-free; rule B1 proves this
    list and the annotated set agree).  test_obs's "zero-alloc runtime
    guard" asserts the runtime half with word-exact Gc counters, and bench
    obs prints the list next to its word counts. *)
val zero_alloc_contract : string list
