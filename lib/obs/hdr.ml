(* Fixed-memory log-bucketed histogram — the continuous-telemetry
   replacement for the grow-forever sample lists of [Vs_stats.Summary].

   Values land in geometric buckets: bucket k covers
   (lowest·g^k, lowest·g^(k+1)] with growth factor g = 1 + error, plus a
   dedicated bucket for exact zero / negatives, an underflow bucket
   (0, lowest], and an overflow bucket above [highest].  Every quantile
   reported is the upper bound of the bucket holding the exact quantile's
   sample, so for in-range values

       exact <= reported < exact * (1 + error)

   — the bucket-error contract the test-suite pins against the exact
   [Vs_stats.Summary] on random vectors.

   Memory is fixed at creation (one int array per histogram, and one float
   array of bounds that all histograms share; ~2.8k buckets at the
   defaults) and the record path allocates nothing: no float
   arithmetic, no float constants, no closures — only comparisons against
   precomputed boundaries and integer increments.  vslint rule A1 proves
   this statically (the alloc-free annotations below), rule B1 ties the
   [zero_alloc_contract] list to those annotations, and test_obs's
   "zero-alloc runtime guard" asserts the runtime half with word-exact Gc
   counters. *)

type t = {
  bounds : float array;
      (* bounds.(k) = upper bound of log bucket k; strictly increasing *)
  counts : int array;
      (* length = Array.length bounds + 3:
         0               exact zero and negatives (representative 0)
         1               underflow: 0 < v <= lowest (representative lowest)
         2 + k           log bucket k (representative bounds.(k))
         length - 1      overflow: v > bounds.(last) *)
  mutable n : int;
  lowest : float;  (* smallest value resolved to its own bucket *)
  top : float;  (* bounds.(last), cached for the record fast path *)
  over_rep : float;  (* representative of the overflow bucket *)
  zero : float;  (* 0.0, stored so [record] needs no float literal *)
  err : float;  (* growth - 1 *)
  over : int;  (* index of the overflow bucket, cached *)
}

let lowest = 1e-6

let highest = 1e6

let relative_error = 0.01

let growth = 1. +. relative_error

(* The bucket bounds every histogram shares: computed once, on first use,
   and never written. *)
let shared_bounds =
  lazy
    (let m =
       let needed = log (highest /. lowest) /. log growth in
       max 1 (int_of_float (ceil needed))
     in
     Array.init m (fun k -> lowest *. (growth ** float_of_int (k + 1))))

let create () =
  let bounds = Lazy.force shared_bounds in
  let m = Array.length bounds in
  {
    bounds;
    counts = Array.make (m + 3) 0;
    n = 0;
    lowest;
    top = bounds.(m - 1);
    over_rep = bounds.(m - 1) *. growth;
    zero = 0.;
    err = relative_error;
    over = m + 2;
  }

(* Smallest k in [lo, hi] with v <= bounds.(k).  The caller guarantees
   lowest < v <= bounds.(hi), so the invariant "answer in [lo, hi]" holds
   throughout.  Recursion instead of a [ref] loop keeps the body free of
   allocating constructs. *)
(* vslint: alloc-free *)
let rec bucket_index (bounds : float array) (v : float) lo hi =
  if lo >= hi then lo
  else begin
    let mid = (lo + hi) / 2 in
    if v <= bounds.(mid) then bucket_index bounds v lo mid
    else bucket_index bounds v (mid + 1) hi
  end

(* vslint: alloc-free *)
let record t v =
  t.n <- t.n + 1;
  if v <= t.zero then t.counts.(0) <- t.counts.(0) + 1
  else if v <= t.lowest then t.counts.(1) <- t.counts.(1) + 1
  else if v > t.top then t.counts.(t.over) <- t.counts.(t.over) + 1
  else begin
    let k = bucket_index t.bounds v 0 (t.over - 3) in
    t.counts.(2 + k) <- t.counts.(2 + k) + 1
  end

(* The static half of the no-allocation guarantee, in the same
   "path:function" shape as [Net.zero_alloc_contract]: rule A1 proves each
   body allocation-free, rule B1 pins this list to the annotated set, and
   bench obs prints it next to its runtime word counts. *)
let zero_alloc_contract =
  [ "lib/obs/hdr.ml:bucket_index"; "lib/obs/hdr.ml:record" ]

let count t = t.n

let error t = t.err

(* Representative value of occupied slot [i]: the value every sample in the
   bucket is rounded up to. *)
let rep t i =
  if i = 0 then 0.
  else if i = 1 then t.lowest
  else if i = t.over then t.over_rep
  else t.bounds.(i - 2)

(* Lower edge of slot [i] — used for [min_value], where rounding down is the
   conservative direction. *)
let low_edge t i =
  if i = 0 then 0.
  else if i = 1 then 0.
  else if i = 2 then t.lowest
  else if i = t.over then t.top
  else t.bounds.(i - 3)

(* The sample of rank [ceil (p * n)], clamped to [1, n]. *)
let rank t p =
  let r = int_of_float (ceil (p *. float_of_int t.n)) in
  if r < 1 then 1 else if r > t.n then t.n else r

let percentile t p =
  if t.n = 0 then 0.
  else begin
    let rank = rank t p in
    let slots = Array.length t.counts in
    let rec find i acc =
      if i >= slots then rep t (slots - 1)
      else begin
        let acc = acc + t.counts.(i) in
        if acc >= rank then rep t i else find (i + 1) acc
      end
    in
    find 0 0
  end

let max_value t =
  if t.n = 0 then neg_infinity
  else begin
    let rec find i = if i < 0 then 0. else if t.counts.(i) > 0 then rep t i else find (i - 1) in
    find (Array.length t.counts - 1)
  end

let min_value t =
  if t.n = 0 then infinity
  else begin
    let slots = Array.length t.counts in
    let rec find i =
      if i >= slots then 0. else if t.counts.(i) > 0 then low_edge t i else find (i + 1)
    in
    find 0
  end

let approx_sum t =
  let acc = ref 0. in
  Array.iteri
    (fun i c -> if c > 0 then acc := !acc +. (float_of_int c *. rep t i))
    t.counts;
  !acc

let mean t = if t.n = 0 then 0. else approx_sum t /. float_of_int t.n

type summary = {
  h_n : int;
  h_p50 : float;
  h_p95 : float;
  h_p99 : float;
  h_max : float;
  h_mean : float;
}

(* One scan for what [percentile] 0.5/0.95/0.99, [max_value] and [mean]
   find in five: the first slot whose running count reaches each rank, the
   last occupied slot, and the representatives' sum added in slot order. *)
let summary t =
  if t.n = 0 then
    { h_n = 0; h_p50 = 0.; h_p95 = 0.; h_p99 = 0.; h_max = neg_infinity;
      h_mean = 0. }
  else begin
    let r50 = rank t 0.5 and r95 = rank t 0.95 and r99 = rank t 0.99 in
    let p50 = ref 0. and p95 = ref 0. and p99 = ref 0. and top = ref 0. in
    let sum = ref 0. and running = ref 0 in
    for i = 0 to Array.length t.counts - 1 do
      let c = t.counts.(i) in
      if c > 0 then begin
        let v = rep t i in
        let before = !running in
        running := before + c;
        if before < r50 && !running >= r50 then p50 := v;
        if before < r95 && !running >= r95 then p95 := v;
        if before < r99 && !running >= r99 then p99 := v;
        top := v;
        sum := !sum +. (float_of_int c *. v)
      end
    done;
    { h_n = t.n; h_p50 = !p50; h_p95 = !p95; h_p99 = !p99; h_max = !top;
      h_mean = !sum /. float_of_int t.n }
  end

(* Occupied buckets as (upper bound, running count), in value order — the
   [le] series the OpenMetrics exposition renders.  Empty buckets are
   skipped; the running count of the last element equals [count t]. *)
let cumulative t =
  let acc = ref [] and running = ref 0 in
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        running := !running + c;
        acc := (rep t i, !running) :: !acc
      end)
    t.counts;
  List.rev !acc
