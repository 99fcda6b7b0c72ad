(** Failure attribution over the event stream.

    An oracle produces structured {!violation}s (which property broke, for
    which message, which processes, which views); {!explain} pairs one with
    the minimal causal slice of the recorded stream — the data-path events
    of the offending message, the membership traffic of the views involved,
    and the faults inside that window — plus derived lineage notes.  Both
    renderings are deterministic functions of (violation, stream). *)

type property =
  | Agreement  (** Property 2.1 *)
  | Uniqueness  (** Property 2.2 *)
  | Integrity  (** Property 2.3 *)
  | Fifo
  | Total_order
  | Evs_total_order  (** Property 6.1 *)
  | Evs_structure  (** Property 6.3, [E_view.validate], well-formedness *)
  | Evs_invariant  (** harness-level EVS structural invariants *)
  | Stabilization
      (** bounded recovery from transient state corruption: a violation that
          persists after the stabilization oracle's recovery bound, or a run
          that never re-converges at all *)

type violation = {
  property : property;
  msg : Event.msg option;  (** the offending message, when one exists *)
  procs : Event.proc list;  (** processes the verdict names *)
  vids : Event.vid list;  (** views the verdict names *)
  detail : string;  (** the oracle's one-line verdict, unchanged *)
}

type explanation = {
  violation : violation;
  notes : string list;
      (** derived facts: the message's lifecycle summary, the views'
          membership/installers, the processes' view sequences and crashes *)
  slice : Recorder.entry list;  (** chronological causal slice *)
}

val explain :
  lineage:Lineage.t -> entries:Recorder.entry list -> violation -> explanation

val to_text : explanation -> string
(** Multi-line indented block, newline-terminated. *)

val to_json : explanation -> Json.t
(** Canonical object: [violation], [notes], [slice] (each entry's
    {!Export.jsonl_of_entries} line, parsed back). *)
