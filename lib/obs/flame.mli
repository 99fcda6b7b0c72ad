(** Flamegraph and Perfetto rendering of critical-path decompositions.

    Two outputs over a {!Critpath.t}:

    - {!folded}: the classic folded-stack format
      ([view;segment-kind;owner <microseconds>] lines) that
      [flamegraph.pl] / [inferno-flamegraph] consume directly.  Values are
      integer microseconds summed per stack; lines are sorted, so the
      output is byte-deterministic on identically-seeded runs (a
      committed golden sample pins it).
    - {!critpath_spans}: Chrome [trace_event] span objects on a dedicated
      "critical path" process (pid 2, one lane per installing node), shaped
      to pass to [Export.chrome_of_entries ~extra] — which
      {!chrome_of_entries} does, layering the causal decomposition next to
      the protocol lanes in Perfetto. *)

val folded : Critpath.t -> string
(** Newline-terminated folded stacks; empty string when no view was ever
    installed. *)

val critpath_spans : Critpath.t -> Json.t list
(** Span + metadata events for the critical-path lanes, in deterministic
    order. *)

val chrome_of_entries : Recorder.entry list -> string
(** [Export.chrome_of_entries] with the critical-path lanes layered on. *)
