(** Exporters over a recorded event stream.

    Formats:
    - JSONL: one canonical JSON object per line with fixed key order
      [{"t":…,"c":…,"ev":…,…payload}] — deterministic, parseable back via
      {!entry_of_jsonl} (test_obs round-trips a committed golden
      sample).
    - Chrome [trace_event] JSON: one pid for the cluster, one tid lane per
      node; installs/e-views/modes/faults as instants, state-transfer tasks
      and flush->install windows as complete spans.  Loads in Perfetto or
      chrome://tracing. *)

val fields_of_event : Event.t -> (string * Json.t) list
(** The payload fields of one event, in the fixed schema order (no
    [t]/[c]/[ev] envelope) — reused by {!Explain} to embed slices. *)

val jsonl_of_entry : Recorder.entry -> string
(** One line, no trailing newline. *)

val jsonl_of_entries : Recorder.entry list -> string
(** Newline-terminated lines. *)

val entry_of_jsonl : string -> (Recorder.entry, string) result

val entries_of_jsonl : string -> (Recorder.entry list, string) result
(** Parses a whole stream; blank lines are skipped; errors carry the 1-based
    line number. *)

val chrome_of_entries : Recorder.entry list -> string
(** A complete [{"traceEvents":[...]}] document. *)
