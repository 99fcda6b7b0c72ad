(* Deterministic OpenMetrics / Prometheus text exposition.

   The output is canonical the same way [Json] is: metric families sorted
   by name (inherited from the registry's sorted enumeration), label order
   fixed ([le] is the only generated label), floats in the round-trippable
   12-or-17-digit repr ([Json.float_repr]), LF line endings, and a final
   [# EOF] terminator per the OpenMetrics spec.  Two identically-seeded
   runs therefore expose byte-identical text — the property the
   committed test/openmetrics_sample.txt golden pins.

   Mapping from the registry namespace:
   - counter  [net.sends]            -> [vs_net_sends_total]
   - gauge    [run.last-event-time]  -> [vs_run_last_event_time]
   - histogram [view.install-latency] -> [vs_view_install_latency_bucket
     {le="..."}] over the occupied HDR buckets (cumulative), plus
     [+Inf] / [_sum] / [_count].

   Only [a-zA-Z0-9_:] survive in metric names; every other character
   becomes ['_']. *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let float_repr = Json.float_repr

(* OpenMetrics spells infinities and NaN its own way, not as
   [Json.float_repr] does: +Inf / -Inf / NaN. *)
let sample_value v =
  if Float.is_nan v then "NaN"
  else if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else float_repr v

let prefix = "vs_"

let buf_family b ~name ~mtype = Printf.bprintf b "# TYPE %s %s\n" name mtype

let of_metrics m =
  let b = Buffer.create 4096 in
  List.iter
    (fun (k, v) ->
      let name = prefix ^ sanitize k in
      buf_family b ~name ~mtype:"counter";
      Printf.bprintf b "%s_total %d\n" name v)
    (Metrics.counters m);
  List.iter
    (fun (k, v) ->
      let name = prefix ^ sanitize k in
      buf_family b ~name ~mtype:"gauge";
      Printf.bprintf b "%s %s\n" name (sample_value v))
    (Metrics.gauges m);
  List.iter
    (fun (k, h) ->
      let name = prefix ^ sanitize k in
      buf_family b ~name ~mtype:"histogram";
      List.iter
        (fun (le, cum) ->
          Printf.bprintf b "%s_bucket{le=\"%s\"} %d\n" name (sample_value le)
            cum)
        (Hdr.cumulative h);
      Printf.bprintf b "%s_bucket{le=\"+Inf\"} %d\n" name (Hdr.count h);
      Printf.bprintf b "%s_sum %s\n" name (sample_value (Hdr.approx_sum h));
      Printf.bprintf b "%s_count %d\n" name (Hdr.count h))
    (Metrics.hists m);
  Buffer.add_string b "# EOF\n";
  Buffer.contents b
