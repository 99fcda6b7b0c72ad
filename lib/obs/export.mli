(** Exporters over a recorded event stream.

    Formats:
    - JSONL: one canonical JSON object per line with fixed key order
      [{"t":…,"c":…,"ev":…,…payload}] — deterministic, and the only
      statement of the per-event field schema: {!Explain} embeds a slice
      entry by parsing its line back with {!Json.of_string}.  The committed
      schema sample is pinned byte for byte by its dune diff rule; test_obs
      checks its envelope keys and that it covers every event type, and
      pins the bytes of a real run.
    - Chrome [trace_event] JSON: one pid for the cluster, one tid lane per
      node; installs/e-views/modes/faults as instants, state-transfer tasks
      and flush->install windows as complete spans.  Loads in Perfetto or
      chrome://tracing. *)

val jsonl_of_entries : Recorder.entry list -> string
(** One line per entry, each newline-terminated. *)

val chrome_of_entries : Recorder.entry list -> string
(** A complete [{"traceEvents":[...]}] document. *)
