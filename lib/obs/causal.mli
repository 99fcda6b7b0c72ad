(** Happened-before DAG over a recorded run — the causal half of vspath.

    Nodes are the recorded entries themselves, identified by their index in
    the stream (0-based, oldest first); edges are the three
    happened-before relations the paper's model admits:

    - {e program-order}: consecutive events of the same process (keyed by
      incarnation, so a rebirth starts a fresh chain);
    - {e message}: a wire [Send] (or its [Dup] extra copy) to the [Recv]
      that consumed that copy, matched FIFO per
      [(kind, src, dst node, (origin, seq))] — so retransmit payloads,
      [Wire.Batch] fan-out (one event per carried identity) and duplicated
      copies all resolve to distinct edges, and in-flight [Drop]s consume
      their copy like a delivery would;
    - {e barrier}: the view-install synchronisation — [Propose] to every
      [Flush] of the view, and every [Flush] (plus the [Propose]) to each
      [Install] of the view, mirroring "install waits for all flush-acks".

    Every edge points from an earlier stream index to a later one, so the
    graph is acyclic by construction; {!validate} re-checks the invariant
    and is what the property suite asserts. *)

type edge_kind = Program | Message | Barrier

type stats = {
  c_nodes : int;
  c_program_edges : int;
  c_message_edges : int;
  c_barrier_edges : int;
  c_orphan_recvs : int;
}

type t

val of_entries : Recorder.entry list -> t

val nodes : t -> Recorder.entry array
(** The recording indexed by node id; the entries are the recorder's own,
    not copies. *)

val preds : t -> int -> (int * edge_kind) list
(** Predecessors of node [id] (its happened-before frontier): barrier edges
    newest first, then the message edge, then the program edge.  A node has
    at most one message and one program predecessor, and both can be the
    same node (a process's own send consumed by its next event).  Consumers
    that need determinism pick by [(time, id)], not by this order. *)

val stats : t -> stats

val orphans : t -> int list
(** Node ids of [Recv] events with no matching send copy, in stream order.
    Empty on any complete Full-level recording — the no-orphan property the
    test suite checks under loss, duplication and batching. *)

val actor : Event.t -> Event.proc option
(** The process whose program the event belongs to — the sender of a wire
    event, the receiver of a delivery, the emitting process of a protocol
    event; [None] for environment events (partition, heal, oracle verdicts,
    notes) and in-flight drops. *)

val validate : t -> (unit, string) result
(** [Ok ()] iff every edge goes forward in stream order, which makes the
    stream order a topological order and the graph acyclic. *)

(** {2 Live collector}

    A {!Recorder.add_sink} tap that accumulates the stream as it is
    recorded, so a DAG can be built without re-reading the recorder (and so
    test_obs can attach a causal collector while asserting the off-path
    send still allocates zero words). *)

type collector

val collector : unit -> collector

val observe : collector -> time:float -> Event.t -> unit
(** Shaped to pass directly to {!Recorder.add_sink}. *)

val collector_entries : collector -> Recorder.entry list
(** Everything observed so far, oldest first. *)

val of_collector : collector -> t
