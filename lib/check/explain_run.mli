(** The run-level explanation report.

    Builds one {!t} from a campaign spec, its outcome and the recorded event
    stream: every structured verdict paired with its causal slice and
    lineage notes, or — for a clean run — a conservation and view-graph
    summary.  Both renderings are deterministic functions of their inputs,
    which is what test_check's corpus loop asserts over the committed
    repros. *)

type t

val build :
  spec:Campaign.spec ->
  outcome:Campaign.outcome ->
  entries:Vs_obs.Recorder.entry list ->
  t

val clean : t -> bool
(** No violations. *)

val to_text : t -> string
(** Newline-terminated report: spec line, counters, then either the clean
    summary or one explanation block per verdict. *)

val to_json : t -> Vs_obs.Json.t

val graph : t -> Vs_obs.Lineage.graph
(** The run's view graph, for Mermaid/DOT export. *)
