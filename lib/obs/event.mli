(** The typed observability event schema.

    This module sits {e below} [lib/sim] in the dependency order, so the
    process, view and message id records ([proc], [vid], [msg]) are defined
    here, and the protocol layers re-export them: [Proc_id.t], [View.Id.t]
    and [Oracle.msg_id] are these types, so emission sites pass protocol ids
    through with no conversion.  Every variant carries only immediate data —
    no closures, no views — so recording stays allocation-light and
    exporters can serialize without reaching back into protocol state. *)

type proc = { node : int; inc : int }
(** The type of [Proc_id.t].  [inc = -1] encodes a node-addressed
    destination, the pseudo-destination [Net.send_node] builds for every
    send: its live incarnation is resolved at delivery, so the Send, Dup
    and Drop events of the message name the pseudo-destination and its
    Recv names the incarnation reached.  [Proc_id.make] never builds one. *)

type vid = { epoch : int; proposer : proc }
(** The type of [View.Id.t]. *)

val proc_to_string : proc -> string
(** ["p3"], ["p3.1"], or ["n3"] for a node-addressed destination. *)

val add_proc : Buffer.t -> proc -> unit
(** Appends [proc_to_string p] without allocating it; {!add_vid} and
    {!add_msg} likewise. *)

val proc_of_string : string -> proc option

val vid_to_string : vid -> string
(** ["v4@p2.1"]. *)

val add_vid : Buffer.t -> vid -> unit

val vid_of_string : string -> vid option

type msg = { origin : proc; mseq : int }
(** Stable correlation identity of an application message: the original
    sender and its per-sender multicast index — the type of
    [Oracle.msg_id].  Carried by data-path events whose payload wraps an
    application message, so one message can be followed through relays,
    retries, drops and duplicates. *)

val msg_to_string : msg -> string
(** ["p0#3"]. *)

val add_msg : Buffer.t -> msg -> unit

val msg_of_string : string -> msg option

val compare_proc : proc -> proc -> int

val compare_vid : vid -> vid -> int

val compare_msg : msg -> msg -> int

module Proc_tbl : Vs_util.Hashtblx.S with type key = proc
(** Hash tables keyed by process, hashing [node * 65599 + inc] with typed
    equality; [Proc_id.Tbl] is this module.  Sorted views enumerate in
    {!compare_proc} order. *)

module Msg_tbl : Vs_util.Hashtblx.S with type key = msg
(** Hash tables keyed by message identity, hashing
    [(node * 65599 + inc) * 65599 + mseq] of the origin and index; the
    Oracle's message table is this module.  Sorted views enumerate in
    {!compare_msg} order. *)

type t =
  | Send of {
      src : proc;
      dst : proc;
      kind : string;
      bytes : int;
      msg : msg option;
    }
  | Recv of { src : proc; dst : proc; kind : string; msg : msg option }
  | Drop of {
      src : proc;
      dst : proc;
      kind : string;
      reason : string;
      msg : msg option;
    }
      (** [reason] is one of ["src-dead"], ["partition"], ["loss"] (all
          decided at send time) or ["partition-inflight"], ["dst-dead"] at
          arrival time — a message already on the wire killed by a partition
          installed, or a crash happening, while it was in flight.  See
          {!send_time_drop}. *)
  | Dup of { src : proc; dst : proc; kind : string; msg : msg option }
  | Retransmit of { proc : proc; origin : proc; count : int; peer : bool }
      (** [proc] re-sent [count] messages of [origin]'s stream; [peer] when
          served by a peer rather than the original sender. *)
  | Backoff of { proc : proc; dst : proc; attempt : int; delay : float }
      (** Control-plane retry with exponential backoff. *)
  | Suspect of { proc : proc; peer : proc }
  | Unsuspect of { proc : proc; peer : proc }
  | Propose of { proc : proc; vid : vid; members : proc list }
  | Flush of { proc : proc; vid : vid; seen : int }
      (** Flush-ack sent while installing [vid]; [seen] is the size of the
          stability vector reported. *)
  | Install of { proc : proc; vid : vid; members : proc list; sync : int }
      (** View installation; [sync] counts messages delivered during the
          closing flush (the view-synchrony sync barrier). *)
  | Eview of {
      proc : proc;
      vid : vid;
      eseq : int;
      cause : string;
      subviews : int;
      svsets : int;
    }  (** EVS extended-view installation (Section 6). *)
  | Mode_change of {
      proc : proc;
      from_mode : string;
      into_mode : string;
      cause : string;
    }  (** NORMAL/REDUCED/SETTLING transition (Figure 1). *)
  | Settle of {
      proc : proc;
      vid : vid;
      transfer : bool;
      creation : string;
      merging : bool;
      clusters : int;
    }
      (** Section 4 classification at a settling view: state transfer needed,
          creation kind (["none"], ["rebirth"], ["in-progress"]), merging,
          and the S_R cluster count. *)
  | Task_start of { proc : proc; task : string; vid : vid }
  | Task_done of { proc : proc; task : string; vid : vid }
      (** State transfer / merge / creation work items. *)
  | Crash of { proc : proc }
  | Partition of { components : int list list }
  | Heal
  | Corrupt of { proc : proc; field : string; detail : string }
      (** Transient state corruption injected into [proc]: [field] is the
          stable name of the corrupted protocol field (["send_seq"],
          ["stable_vectors"], ["acked"], ["stream.next"]), [detail] the
          before/after rendering of the mutation. *)
  | Quarantine of {
      bound : int;
      opened : float;
      cut : float;
      views : int;
      quarantined : int;
    }
      (** Stabilization-oracle verdict window: violations between [opened]
          (the first transient fault) and [cut] (the first installation of
          the [bound]-th new view after the last fault) are quarantined as
          recovery noise; [cut = -1] means fewer than [bound] fresh views
          were installed.  [views] counts the fresh views, [quarantined]
          the violations attributed to the window. *)
  | Note of { component : string; message : string }
      (** Untyped escape hatch; carries [Sim.record] calls. *)

val send_time_drop : string -> bool
(** Classify a [Drop] reason.  [true] for a send-time kill: no copy went
    on the wire, and the drop is the sender's action.  [false] only for the
    arrival-time reasons ["dst-dead"] and ["partition-inflight"], which
    kill a copy that a [Send] or [Dup] already put on the wire.  A reason
    [Net] never emits (it can only arrive through a hand-edited replay)
    counts as send-time, so it never consumes another message's wire copy
    and never breaks the lineage conservation count. *)

val component : t -> string
(** The component this event renders under ("net", "vsync",
    "fd", "gms", "evs", "mode", "app", "harness", or the [Note]
    component). *)

val type_name : t -> string
(** Stable wire name used by the JSONL schema. *)

val all_type_names : string list
(** Every value [type_name] can return; test_obs checks the committed
    trace-schema sample covers all of them. *)

val render : t -> string
(** Human-readable one-liner (no timestamp/component prefix). *)

(** {2 Structural accessors}

    Used by the read side ([Query] / [Lineage] / [Explain]) to slice a stream
    without matching on every variant. *)

val procs : t -> proc list
(** Every process the event mentions, in payload order (members included for
    [Propose]/[Install]). *)

val vids : t -> vid list
(** Every view identifier the event mentions. *)

val msg_of : t -> msg option
(** The correlation identity, for the data-path events that carry one. *)
