(** Deterministic OpenMetrics / Prometheus text exposition of a
    {!Metrics} registry.

    Canonical like {!Json}: families sorted by metric name, fixed label
    order ([le] only), floats in {!Json.float_repr}'s repr, LF line
    endings, trailing [# EOF].  Identically-seeded runs expose
    byte-identical text — pinned by a committed golden sample. *)

val of_metrics : Metrics.t -> string
(** Render the registry.  Counters become [vs_<name>_total], gauges
    [vs_<name>], histograms a cumulative [_bucket{le="..."}] series over
    the occupied HDR buckets plus [+Inf], [_sum], [_count].  Names are
    sanitized to [[a-zA-Z0-9_:]]. *)

val sanitize : string -> string
(** Replace every character outside [[a-zA-Z0-9_:]] with ['_']. *)

val sample_value : float -> string
(** OpenMetrics float spelling: {!Json.float_repr}'s repr, with
    [+Inf] / [-Inf] / [NaN] for the non-finite values. *)
