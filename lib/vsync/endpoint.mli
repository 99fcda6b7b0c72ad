(** View-synchronous endpoint: one per process.

    Integrates the failure detector, membership estimation and reliable
    multicast into the abstraction of Section 2 of the paper:

    - processes deliver a totally-ordered-per-process sequence of message
      and view events, starting with their initial singleton view;
    - {e Agreement} (Property 2.1): processes surviving from a view [v] to
      the same next view deliver the same set of messages in [v] — enforced
      by the flush protocol, which synchronises survivors on the union of
      messages seen in each prior view before installing the next;
    - {e Uniqueness} (Property 2.2): a message is delivered only in the view
      it was multicast in;
    - {e Integrity} (Property 2.3): at-most-once delivery of actually-sent
      messages.

    Multicasts issued while a flush is in progress are queued and sent in the
    next view.  Each endpoint may attach an opaque {e annotation} that is
    collected during the flush and handed to every member with the new view —
    the hook on which enriched view synchrony (lib/core) and state-transfer
    negotiation are built. *)

module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View

type order = Fifo | Total | Causal
(** [Fifo]: per-sender FIFO.  [Total]: relayed through the view coordinator,
    totally ordered within the view (and still FIFO per origin).  [Causal]:
    delivered only after everything the sender had delivered when it
    multicast — causal order within the view, carried as a dependency
    vector on the message (across views, causality follows from the flush
    cut). *)

type config = {
  fd : Vs_fd.Fd.config;
  stability : float;      (** membership estimator settle time *)
  nag_period : float;     (** estimator retry period *)
  flush_timeout : float;  (** coordinator restarts a stalled flush after this *)
  nack_delay : float;     (** gap age before requesting retransmission *)
  one_at_a_time : bool;
      (** Isis-style admission throttle: a proposed view may contain at most
          one process that was not in the proposer's current view (Section 5
          discussion; used by experiment E4). *)
  stability_interval : float option;
      (** with [Some dt], members gossip their delivered prefixes every
          [dt]; messages below the view's stability floor (delivered by
          every member) are trimmed from flush reports and logs, bounding
          the synchronisation cost of view changes.  [None] disables
          stability tracking (the E10 ablation). *)
  retry_backoff : float;
      (** initial re-send delay for unacked control-plane messages
          (Propose, Flush_ack, Install, To_request).  Each delay is scaled
          by a uniform factor in [0.75, 1.25] to de-synchronise senders, and
          a send is given up after 8 re-sends (the failure detector and
          flush timeout own recovery beyond that). *)
  retry_backoff_max : float;  (** backoff doubles per attempt up to this *)
  batching : bool;
      (** ship outgoing data as one {!Wire.Batch} per member per flush
          round instead of one wire message per multicast, and total-order
          requests as {!Wire.To_batch} envelopes.  A round closes 2 ms
          after its first buffered message.  Off by default: the unbatched
          wire format (and the byte-identical traces of existing seeded
          repros) is preserved exactly. *)
  batch_max : int;  (** ... or as soon as it holds this many messages *)
  pipeline_depth : int;
      (** maximum shipped-but-not-yet-stable flush rounds before the next
          round is held back (requires [stability_interval]).  [1] is
          stop-and-wait; larger keeps the pipe full; [0] disables flow
          control (open loop). *)
}

val default_config : config

type 'ann view_event = {
  view : View.t;
  annotations : (Proc_id.t * 'ann option) list;
      (** each member's annotation at flush time *)
  priors : (Proc_id.t * View.Id.t) list;
      (** the view each member came from *)
}

type ('a, 'ann) callbacks = {
  on_view : 'ann view_event -> unit;
  on_message : sender:Proc_id.t -> 'a -> unit;
}

type ('a, 'ann) t

val create :
  Vs_sim.Sim.t ->
  (('a, 'ann) Wire.t) Vs_net.Net.t ->
  me:Proc_id.t ->
  universe:int list ->
  config:config ->
  callbacks:('a, 'ann) callbacks ->
  ('a, 'ann) t
(** Registers [me] on the network and starts the stack.  The initial
    singleton view is delivered through the event queue, so it arrives after
    the caller finishes wiring up. *)

val me : ('a, 'ann) t -> Proc_id.t

val view : ('a, 'ann) t -> View.t
(** Currently installed view. *)

val is_blocked : ('a, 'ann) t -> bool
(** [true] while a flush is in progress (multicasts are being queued). *)

val is_alive : ('a, 'ann) t -> bool

val multicast : ('a, 'ann) t -> ?order:order -> 'a -> unit
(** Multicast to the current view.  Queued if a flush is in progress.
    [Total] messages requested while the coordinator is flushing, or that
    race with a view change, may be lost (at-most-once); FIFO messages are
    reliable within the view and across changes via the flush protocol. *)

val set_annotation : ('a, 'ann) t -> 'ann option -> unit
(** Annotation reported with this process's next flush. *)

val leave : ('a, 'ann) t -> unit
(** Graceful departure: announce, stop the stack, release the node. *)

val kill : ('a, 'ann) t -> unit
(** Crash the process (no announcement).  The harness pairs this with
    network-level crash semantics automatically. *)

(** {2 Transient state corruption}

    A typed fault-injection API for the self-stabilization harness: each
    kind smashes one named field of the endpoint's protocol state,
    deterministically.  Node numbers are resolved against the current view
    (falling back to the endpoint itself), so injections replay from a seed
    regardless of membership at injection time. *)

type corruption =
  | Seq_skew of int  (** [send_seq += k] (clamped at 0) *)
  | Stability_smear of int * int
      (** [(member node, amount)]: that member's reported stable prefix for
          this endpoint's stream [+= amount] (clamped at 0) *)
  | View_skew of int
      (** [acked] view-id epoch [+= k] (clamped at 0) — a regressed value
          is outbid away by [Propose_reject], a bumped one stalls proposals
          until a higher bid wins *)
  | Deps_truncate of int * int
      (** [(sender node, k)]: that sender's delivered-prefix cursor
          [-= k] (clamped at 0), forgetting already-met causal
          dependencies *)

val corruption_field : corruption -> string
(** Stable field name of the state a kind targets: ["send_seq"],
    ["stable_vectors"], ["acked"], ["stream.next"]. *)

val corrupt : ('a, 'ann) t -> corruption -> string
(** Apply the corruption to a live endpoint (no-op when dead), emitting a
    [Corrupt] observability event with a before/after detail.  Returns
    {!corruption_field}. *)

type stats = private {
  mutable data_sent : int;
  mutable to_dropped : int;  (** total-order requests lost to view changes *)
  mutable nacks_sent : int;
  mutable retransmits : int; (** data messages served in answer to NACKs *)
  mutable peer_retransmits : int;
      (** of [retransmits], those served for another sender's stream —
          the peer-served recovery path *)
  mutable stabilized : int;  (** log entries trimmed as stable *)
  mutable ctl_retries : int;
      (** control-plane re-sends by the reliable-delivery layer *)
  mutable batches_sent : int;
      (** {!Wire.Batch} rounds shipped (0 unless [config.batching]) *)
}
(** The endpoint's counters, bumped in place; only this module writes
    them. *)

val stats : ('a, 'ann) t -> stats
(** A copy of the counters now: later activity does not change it. *)

val sum_stats : stats list -> stats
(** Field-wise sum, e.g. over a cluster's members. *)

(** {2 Test hooks}

    Pure re-exports of internal hot-path computations, so tests can pin the
    optimised implementations against independent references without
    standing up an endpoint. *)

val stability_floor_of :
  vectors:(Proc_id.t * (Proc_id.t * int) list) list ->
  members:Proc_id.t list ->
  sender:Proc_id.t ->
  int
(** The view's stability floor for [sender] given each member's reported
    delivered-prefix vector — the member-wise minimum, 0 for members that
    have not reported (and [max_int] with no members, as internally). *)

val nack_targets_of :
  me:Proc_id.t ->
  members:Proc_id.t list ->
  sender:Proc_id.t ->
  rounds:int ->
  Proc_id.t list
(** The first [rounds] NACK retransmission targets for a gap in [sender]'s
    stream as seen by [me]: the sender first, then round-robin over the
    other members in member order. *)
