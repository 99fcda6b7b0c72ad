(** Metrics registry: counters, gauges, and simulated-time histograms.

    {!of_entries} folds a recorded event stream into the derived metrics the
    paper's analysis calls for: per-view installation latency (first propose
    to each install), flush stall time (a member's flush-ack to its install),
    sync-barrier delivery counts, retransmit totals, and message counts split
    by the sender's NORMAL/REDUCED/SETTLING mode.  The same fold is exposed
    incrementally ({!deriv_create} / {!step}) so the vsmon series layer can
    keep a registry live as events are emitted.  Histograms are fixed-memory
    {!Hdr} instances, so a registry's footprint is bounded for arbitrarily
    long runs.  All enumeration is sorted, so identically-seeded runs render
    byte-identical summaries. *)

type t

val create : unit -> t

(** {2 Registry} *)

val incr : ?by:int -> t -> string -> unit

val set_gauge : t -> string -> float -> unit

val observe : t -> string -> float -> unit

val counter : t -> string -> int
(** 0 when absent. *)

val hist : t -> string -> Hdr.t option

val counters : t -> (string * int) list
(** Sorted by name. *)

val gauges : t -> (string * float) list

val hists : t -> (string * Hdr.t) list

(** {2 Derivation} *)

type deriv
(** Incremental derivation state: a registry plus the cross-event context
    (per-node mode, open proposes/flushes/tasks) the fold needs. *)

val deriv_create : unit -> deriv

val deriv_metrics : deriv -> t
(** The live registry the fold updates — safe to read at any point. *)

val step : deriv -> time:float -> Event.t -> unit
(** Fold one timestamped event into the registry. *)

val of_entries : Recorder.entry list -> t
(** [deriv_create] + [step] over a completed recording. *)

(** {2 The scrape} *)

type summary = Hdr.summary = {
  h_n : int;
  h_p50 : float;
  h_p95 : float;
  h_p99 : float;
  h_max : float;
  h_mean : float;
}
(** A histogram cut to the figures every renderer prints ({!Hdr.summary}). *)

type scrape = {
  s_counters : (string * int) list;  (** sorted by name *)
  s_gauges : (string * float) list;
  s_hists : (string * summary) list;
}
(** One immutable reading of a registry.  {!to_json}, {!to_text} and the
    {!Series} snapshots all render from it. *)

val scrape : t -> scrape

val scrape_fields : scrape -> (string * Json.t) list
(** The sorted [counters] / [gauges] / [histograms] objects, histograms
    summarized as [n]/[p50]/[p95]/[p99]/[max]/[mean]. *)

(** {2 Rendering} *)

val to_text : t -> string

val to_json : t -> Json.t
(** [Json.Obj (scrape_fields (scrape t))]. *)
