(* Order statistics for the benchmark's reports.

   [percentile] is exact (no histogram bucketing), with the same rank rule
   as Vs_stats.Summary: the sample of rank ceil (p * n).  [median] and
   [quartiles] follow Python's [statistics.median] and
   [statistics.quantiles ~n:4] (the default "exclusive" method), so the
   spread the [--reps] report prints is the spread an outside checker
   computes from the same values. *)

let sorted values =
  let a = Array.copy values in
  Array.sort Float.compare a;
  a

let percentile sorted_values p =
  let n = Array.length sorted_values in
  if n = 0 then 0.
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    sorted_values.(max 1 (min n rank) - 1)

let median values =
  let a = sorted values in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartile; needs at least two values. *)
let quartiles values =
  let a = sorted values in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: fewer than two values";
  let m = ld + 1 in
  let cut i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (cut 1, cut 3)
