(** Wire messages of the view-synchrony protocol.

    One variant covers the whole stack: failure-detector heartbeats, the data
    path (FIFO streams plus coordinator-relayed total order), negative
    acknowledgements, and the propose / flush / install membership protocol.
    ['a] is the application payload; ['ann] the opaque view-change annotation
    (the hook enriched view synchrony is built on). *)

type 'a body =
  | User of 'a
  | Relay of { orig : Vs_net.Proc_id.t; user : 'a }
      (** A totally-ordered message: relayed on the coordinator's FIFO
          stream, delivered as coming from [orig]. *)
  | Causal of { deps : (Vs_net.Proc_id.t * int) list; user : 'a }
      (** A causally-ordered message: [deps] is the sender's delivered
          prefix per stream at multicast time; receivers hold the message
          until their own prefixes dominate it. *)

type 'a data = {
  vid : Vs_gms.View.Id.t;  (** view the message belongs to *)
  sender : Vs_net.Proc_id.t;
  seq : int;               (** per-sender sequence number within [vid] *)
  body : 'a body;
}

type ('a, 'ann) t =
  | Heartbeat
  | Leave_announce
  | Data of 'a data
  | To_request of { vid : Vs_gms.View.Id.t; rseq : int; user : 'a }
      (** Ask the view coordinator to relay [user] in total order; [rseq]
          sequences the origin's requests so the relay preserves per-origin
          FIFO even when requests race on the wire. *)
  | Batch of 'a data list
      (** Several data messages of one sender's stream, shipped in one wire
          message — the batched data plane.  All elements share [sender] and
          [vid]; sequence numbers were assigned at multicast time, so each
          payload keeps its identity for flush reports, NACK recovery and the
          oracle.  Receivers ingest every element and drain once. *)
  | To_batch of { vid : Vs_gms.View.Id.t; rseq0 : int; users : 'a list }
      (** Several total-order requests from one origin in one reliable
          envelope: element [i] carries request sequence number
          [rseq0 + i].  The coordinator relays them exactly as if they had
          arrived as individual {!To_request}s. *)
  | Nack of {
      vid : Vs_gms.View.Id.t;
      sender : Vs_net.Proc_id.t;
      missing : int list;
    }  (** Request retransmission of [sender]'s sequence numbers.  Any
           member that logged them may serve the gap from its own copy of
           the stream — recovery does not depend on the original sender
           staying alive. *)
  | Stable_report of {
      vid : Vs_gms.View.Id.t;
      vector : (Vs_net.Proc_id.t * int) list;
          (** per sender, the reporter's contiguously-delivered prefix;
              the member-wise minimum is the view's stability floor, below
              which flush reports need not carry messages *)
    }
  | Retransmit of 'a data list
  | Reliable of { rid : int; payload : ('a, 'ann) t }
      (** Retried control-plane envelope: the sender re-sends [payload]
          (with exponential backoff) until it receives [Ctl_ack rid], the
          send is superseded by protocol progress, or the peer is declared
          dead.  [rid] is unique per sender; receivers ack every copy, so
          duplicate delivery of the inner payload must be (and is)
          idempotent. *)
  | Ctl_ack of { rid : int }
      (** Acknowledges receipt of [Reliable { rid; _ }] from the acker. *)
  | Propose of { pvid : Vs_gms.View.Id.t; members : Vs_net.Proc_id.t list }
  | Propose_reject of { pvid : Vs_gms.View.Id.t; max_vid : Vs_gms.View.Id.t }
      (** The receiver has already accepted [max_vid] >= [pvid]; lets a
          proposer with a stale epoch (e.g. freshly recovered) catch up
          without waiting out its flush timeout. *)
  | Flush_ack of {
      pvid : Vs_gms.View.Id.t;
      from_view : Vs_gms.View.Id.t;
      seen : 'a data list;  (** every data message of [from_view] this
                                process has received (delivered or not) *)
      ann : 'ann option;
    }
  | Install of {
      pvid : Vs_gms.View.Id.t;
      view : Vs_gms.View.t;
      sync : (Vs_gms.View.Id.t * 'a data list) list;
          (** per prior view: the union of messages seen by its survivors —
              delivered by each survivor before installing [view] *)
      anns : (Vs_net.Proc_id.t * 'ann option) list;
      priors : (Vs_net.Proc_id.t * Vs_gms.View.Id.t) list;
    }

val compare_data : 'a data -> 'a data -> int
(** Order by (sender, seq) — the canonical synchronisation-delivery order. *)

val size_of : user:('a -> int) -> ann:('ann -> int) -> ('a, 'ann) t -> int
(** Nominal encoded size in bytes, for traffic accounting (E9/E10). *)

val kind : ('a, 'ann) t -> string
(** Stable message-kind name for observability ([Reliable] reports its inner
    payload's kind — the wrapper is transport, not protocol). *)

val idents : user:('a -> 'b option) -> ('a, 'ann) t -> 'b list
(** Every application-message identity this wire message carries, as
    extracted from each payload by [user]: one for [Data] (through
    [Relay]/[Causal] bodies) and [To_request], one per payload for
    [Batch]/[To_batch], [Reliable] recursively, and [] for control traffic
    and [Retransmit] (re-sends are covered by the typed [Event.Retransmit],
    not counted as fresh copies).  The network layer's identity hook: it
    emits one Full-level event per identity, keeping lineage conservation
    per-payload. *)
