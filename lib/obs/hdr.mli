(** Fixed-memory log-bucketed (HDR-style) histogram.

    Replaces the grow-forever sample lists of {!Vs_stats.Summary} on the
    continuous-telemetry path: memory is fixed at {!create} time and
    {!record} performs no allocation (certified statically by vslint rule
    A1 via the [alloc-free] annotations, pinned by {!zero_alloc_contract},
    and asserted at runtime by test_obs's word-exact Gc counters).

    Quantiles are reported as the upper bound of the bucket holding the
    exact quantile's sample, so for values inside [(lowest, highest)]:

    {v exact <= reported < exact * (1 + error) v} *)

type t

val create : unit -> t
(** [create ()] builds an empty histogram resolving values in
    [(lowest, highest)] = [(1e-6, 1e6)] into geometric buckets with
    relative width [error] = [0.01] (1%).  Values at or below zero, in
    [(0, lowest]], and above [highest] land in dedicated under/overflow
    buckets. *)

val record : t -> float -> unit
(** [record t v] adds one sample.  Allocation-free: integer increments and
    float comparisons only (A1-certified). *)

val count : t -> int
(** Total number of recorded samples. *)

val percentile : t -> float -> float
(** [percentile t p] with [p] in [\[0, 1\]]: upper bound of the bucket
    holding the sample of rank [ceil (p * n)] (clamped to [\[1, n\]]) — the
    same rank rule as {!Vs_stats.Summary.percentile}.  [0.] when empty. *)

val max_value : t -> float
(** Upper bound of the highest occupied bucket; [neg_infinity] when
    empty. *)

val min_value : t -> float
(** Lower edge of the lowest occupied bucket (rounding down, the
    conservative direction for a minimum); [infinity] when empty. *)

val mean : t -> float
(** Bucket-representative mean ([approx_sum / count]); [0.] when empty. *)

val approx_sum : t -> float
(** Sum of bucket representatives weighted by count — within a factor
    [1 + error] of the exact sum for in-range samples. *)

type summary = {
  h_n : int;
  h_p50 : float;
  h_p95 : float;
  h_p99 : float;
  h_max : float;
  h_mean : float;
}

val summary : t -> summary
(** {!count}, {!percentile} at 0.5, 0.95 and 0.99, {!max_value} and {!mean},
    bit for bit, from one scan of the buckets. *)

val cumulative : t -> (float * int) list
(** Occupied buckets as [(upper_bound, running_count)]; the last running
    count equals {!count}.  This is the [le]-labelled series the
    OpenMetrics exposition renders. *)

val error : t -> float
(** The relative bucket width (0.01). *)

val zero_alloc_contract : string list
(** The ["path:function"] entries whose bodies vslint rule A1 must prove
    allocation-free (see {!Net.zero_alloc_contract} for the pattern). *)
