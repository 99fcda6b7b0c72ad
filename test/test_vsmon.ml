(* vsmon telemetry-plane tests: HDR histogram error bounds against the
   exact Summary statistics, byte-determinism of the windowed series and
   the OpenMetrics exposition, schedule-invisibility of scraping and stall
   attribution arithmetic. *)

module Hdr = Vs_obs.Hdr
module Metrics = Vs_obs.Metrics
module Series = Vs_obs.Series
module Stall = Vs_obs.Stall
module Critpath = Vs_obs.Critpath
module Openmetrics = Vs_obs.Openmetrics
module Json = Vs_obs.Json
module Event = Vs_obs.Event
module Recorder = Vs_obs.Recorder
module Export = Vs_obs.Export
module Summary = Vs_stats.Summary
module Campaign = Vs_check.Campaign

let p node inc = { Event.node; inc }

let v epoch node = { Event.epoch; proposer = p node 0 }

(* --- HDR histogram ------------------------------------------------------- *)

(* Quantile bound: for samples inside (lowest, highest), the bucketed
   quantile must satisfy exact <= reported <= exact * (1 + error), where
   exact is Summary's nearest-rank percentile (both use the same rank
   rule, so they pick the same underlying sample). *)
let hdr_quantile_property =
  QCheck.Test.make ~name:"hdr percentile within one bucket of exact" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 200)
           (float_range 0.000002 999_000.))
        (float_bound_inclusive 1.))
    (fun (samples, q) ->
      let h = Hdr.create () in
      let s = Summary.create () in
      List.iter
        (fun x ->
          Hdr.record h x;
          Summary.add s x)
        samples;
      let exact = Summary.percentile s q in
      let reported = Hdr.percentile h q in
      let err = Hdr.error h in
      reported >= exact *. (1. -. 1e-9)
      && reported <= exact *. (1. +. err) *. (1. +. 1e-9))

(* Hdr.summary reads in one scan what percentile 0.5/0.95/0.99, max_value
   and mean read in five, bit for bit.  Samples reach every bucket kind:
   zero and negatives, underflow, the log buckets and overflow; a third of
   the lists are empty. *)
let hdr_summary_property =
  let sample =
    QCheck.Gen.(
      oneof
        [
          float_range (-1.) 0.;
          float_range 0. 1e-6;
          map (fun e -> 10. ** e) (float_range (-6.) 7.);
        ])
  in
  QCheck.Test.make ~name:"hdr summary equals the five scans" ~count:300
    QCheck.(
      make
        Gen.(
          frequency
            [ (1, return []); (2, list_size (int_range 1 300) sample) ]))
    (fun samples ->
      let h = Hdr.create () in
      List.iter (Hdr.record h) samples;
      let s = Hdr.summary h in
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      s.Hdr.h_n = Hdr.count h
      && same s.Hdr.h_p50 (Hdr.percentile h 0.5)
      && same s.Hdr.h_p95 (Hdr.percentile h 0.95)
      && same s.Hdr.h_p99 (Hdr.percentile h 0.99)
      && same s.Hdr.h_max (Hdr.max_value h)
      && same s.Hdr.h_mean (Hdr.mean h))

let test_hdr_edges () =
  let h = Hdr.create () in
  Alcotest.(check int) "empty count" 0 (Hdr.count h);
  Alcotest.(check (float 0.)) "empty percentile" 0. (Hdr.percentile h 0.99);
  (* one sample in each special bucket: zero/negative, underflow,
     in-range, overflow *)
  Hdr.record h 0.;
  Hdr.record h (-3.);
  Hdr.record h 1e-9;
  Hdr.record h 5.;
  Hdr.record h 2e9;
  Alcotest.(check int) "count" 5 (Hdr.count h);
  Alcotest.(check bool) "max >= overflow rep" true (Hdr.max_value h > 1e6);
  Alcotest.(check bool) "min is the zero bucket" true (Hdr.min_value h <= 0.);
  let pcts = List.map (Hdr.percentile h) [ 0.1; 0.3; 0.5; 0.7; 0.9; 1. ] in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "percentiles nondecreasing" true (nondecreasing pcts);
  (* cumulative ends at the total count and is the _bucket series *)
  (match List.rev (Hdr.cumulative h) with
  | (_, last) :: _ -> Alcotest.(check int) "cumulative total" 5 last
  | [] -> Alcotest.fail "cumulative empty")

(* --- series -------------------------------------------------------------- *)

let run_campaign ~seed ~series () =
  let recorder = Recorder.create ~level:Recorder.Protocol () in
  (match series with
  | Some s ->
      ignore
        (Recorder.add_sink recorder (Series.observe s)
          : Recorder.sink_handle)
  | None -> ());
  let spec = Campaign.generate ~seed ~nodes:4 ~quick:true () in
  let (_ : Campaign.outcome) = Campaign.run ~obs:recorder spec in
  (match series with
  | Some s ->
      let now =
        match Recorder.tail ~limit:1 recorder with
        | [ e ] -> e.Recorder.time
        | _ -> 0.
      in
      Series.finish s ~now
  | None -> ());
  recorder

let test_series_deterministic () =
  let one () =
    let s = Series.create () in
    let recorder = run_campaign ~seed:7 ~series:(Some s) () in
    (s, recorder)
  in
  let a, recorder = one () and b, _ = one () in
  Alcotest.(check string) "series JSON byte-identical"
    (Json.to_string (Series.to_json a))
    (Json.to_string (Series.to_json b));
  Alcotest.(check string) "openmetrics byte-identical"
    (Openmetrics.of_metrics (Series.metrics a))
    (Openmetrics.of_metrics (Series.metrics b));
  Alcotest.(check bool) "windows were scraped" true (Series.count a > 0);
  (* the live fold and the fold of the recording end in the same registry *)
  match List.rev (Series.snapshots a) with
  | last :: _ ->
      Alcotest.(check string) "last window scrapes the end-of-run registry"
        (Json.to_string
           (Metrics.to_json (Metrics.of_entries (Recorder.entries recorder))))
        (Json.to_string (Json.Obj (Metrics.scrape_fields last.Series.scrape)))
  | [] -> Alcotest.fail "no snapshot retained"

(* Attaching a series must not perturb the run: the recorded stream with
   scraping on is byte-identical to the stream with scraping off. *)
let test_series_schedule_invisible () =
  let plain = run_campaign ~seed:11 ~series:None () in
  let tapped =
    run_campaign ~seed:11 ~series:(Some (Series.create ())) ()
  in
  Alcotest.(check string) "event stream unchanged by scraping"
    (Export.jsonl_of_entries (Recorder.entries plain))
    (Export.jsonl_of_entries (Recorder.entries tapped))

let test_series_windows () =
  let s = Series.create ~interval:1.0 () in
  let send t =
    Series.observe s ~time:t
      (Event.Send
         { src = p 0 0; dst = p 1 0; kind = "data"; bytes = 8; msg = None })
  in
  send 0.2;
  send 0.4;
  send 1.5;
  send 2.7;
  Series.finish s ~now:2.7;
  let snaps = Series.snapshots s in
  Alcotest.(check int) "three windows" 3 (List.length snaps);
  (match snaps with
  | [ w0; w1; w2 ] ->
      Alcotest.(check int) "window indices" 0 w0.Series.window;
      Alcotest.(check (float 1e-9)) "w1 start" 1.0 w1.Series.t_start;
      Alcotest.(check int) "cumulative sends at w0" 2
        (Series.delta_counter ~prev:None w0 "net.sends");
      Alcotest.(check int) "delta sends in w1" 1
        (Series.delta_counter ~prev:(Some w0) w1 "net.sends");
      Alcotest.(check int) "delta sends in w2" 1
        (Series.delta_counter ~prev:(Some w1) w2 "net.sends")
  | _ -> Alcotest.fail "unexpected snapshot shape");
  (* finish is idempotent and observe is ignored afterwards *)
  Series.finish s ~now:9.9;
  send 5.0;
  Alcotest.(check int) "no windows after finish" 3
    (List.length (Series.snapshots s))

(* 1,026 one-second windows through the fixed 1,024-window ring: the two
   oldest (windows 0 and 1) are evicted, windows 2-1025 survive in order. *)
let test_series_ring_truncation () =
  let s = Series.create ~interval:1.0 () in
  let windows = 1026 in
  for k = 0 to windows - 1 do
    Series.observe s
      ~time:(float_of_int k +. 0.5)
      (Event.Note { component = "app"; message = "tick" })
  done;
  Series.finish s ~now:(float_of_int (windows - 1) +. 0.5);
  Alcotest.(check int) "all windows counted" windows (Series.count s);
  Alcotest.(check int) "the ring holds 1024" 1024 (Series.capacity s);
  Alcotest.(check (list int)) "windows 2-1025 survive, oldest first"
    (List.init 1024 (fun i -> i + 2))
    (List.map (fun snap -> snap.Series.window) (Series.snapshots s))

(* --- stall attribution ---------------------------------------------------- *)

(* The stream also carries the edge cases every consumer of Stall's anchor
   tracker must treat alike: p2 joins mid-change (installs with no own
   flush-ack, then flushes after its install), p0 installs the same view a
   second time, and view v3 installs with its Propose not retained. *)
let test_stall_attribution () =
  let e time event = { Recorder.time; event } in
  let vid = v 2 0 and vid3 = v 3 0 in
  let members = [ p 0 0; p 1 0 ] in
  let entries =
    [
      e 1.0 (Event.Propose { proc = p 0 0; vid; members });
      e 1.0 (Event.Propose { proc = p 1 0; vid; members });
      e 1.2 (Event.Flush { proc = p 0 0; vid; seen = 2 });
      e 1.5 (Event.Flush { proc = p 1 0; vid; seen = 2 });
      e 1.6 (Event.Install { proc = p 0 0; vid; members; sync = 2 });
      e 1.7 (Event.Install { proc = p 1 0; vid; members; sync = 2 });
      e 2.1 (Event.Install { proc = p 2 0; vid; members; sync = 0 });
      e 2.2 (Event.Flush { proc = p 2 0; vid; seen = 2 });
      e 2.4 (Event.Install { proc = p 0 0; vid; members; sync = 0 });
      e 2.5 (Event.Flush { proc = p 0 0; vid = vid3; seen = 2 });
      e 2.6 (Event.Install { proc = p 0 0; vid = vid3; members; sync = 0 });
    ]
  in
  let attrs = Stall.of_entries entries in
  Alcotest.(check int) "one attribution per install with a propose" 4
    (List.length attrs);
  List.iter
    (fun a ->
      Alcotest.(check bool) "segments non-negative" true
        (a.Stall.a_propose_wait >= 0.
        && a.Stall.a_flush_wait >= 0.
        && a.Stall.a_stability_wait >= 0.);
      (* the three segments must sum to the install latency *)
      Alcotest.(check (float 1e-9)) "segments sum to latency"
        (a.Stall.a_time -. 1.0) (Stall.total a))
    attrs;
  let split name (a : Stall.attr) (pw, fw, sw) =
    Alcotest.(check (float 1e-9)) (name ^ ": propose wait") pw a.a_propose_wait;
    Alcotest.(check (float 1e-9)) (name ^ ": flush-ack wait") fw a.a_flush_wait;
    Alcotest.(check (float 1e-9)) (name ^ ": stability wait") sw
      a.a_stability_wait
  in
  (match attrs with
  | [ a0; _; joined; again ] ->
      (* proc 0 flushed early: its flush-ack wait spans to the last flush *)
      split "p0" a0 (0.2, 0.3, 0.1);
      (* no own flush-ack: the propose wait is empty *)
      split "p2 joined mid-change" joined (0., 0.5, 0.6);
      (* the repeated install keeps p0's first flush-ack and waits for p2's
         late one *)
      split "p0 again" again (0.2, 1.0, 0.2)
  | _ -> Alcotest.fail "unexpected attributions");
  (* every consumer of the tracker agrees on the same stream *)
  let cp = Critpath.of_entries entries in
  Alcotest.(check bool) "critical paths carry the attributions" true
    (List.map (fun ip -> ip.Critpath.ip_attr) cp.Critpath.installs = attrs);
  Alcotest.(check bool) "critical paths consistent with stall" true
    (Critpath.consistent_with_stall cp attrs);
  let hist_count name =
    match Metrics.hist (Metrics.of_entries entries) name with
    | Some h -> Hdr.count h
    | None -> 0
  in
  Alcotest.(check int) "install-latency samples" 4
    (hist_count "view.install-latency");
  (* an install with an own flush-ack at or before it, propose or not *)
  let with_own_flush = 4 in
  Alcotest.(check int) "flush-stall samples" with_own_flush
    (hist_count "view.flush-stall");
  let flush_spans =
    match Json.of_string (Export.chrome_of_entries entries) with
    | Error err -> Alcotest.failf "chrome export: %s" err
    | Ok doc ->
        List.length
          (List.filter
             (fun ev ->
               let str k = Option.bind (Json.member k ev) Json.to_string_opt in
               str "ph" = Some "X"
               &&
               match str "name" with
               | Some n -> String.starts_with ~prefix:"flush " n
               | None -> false)
             (Option.value ~default:[]
                (Option.bind (Json.member "traceEvents" doc) Json.to_list_opt)))
  in
  Alcotest.(check int) "chrome flush spans" with_own_flush flush_spans;
  let rows = Stall.windows ~interval:1.0 attrs in
  Alcotest.(check int) "two occupied windows" 2 (List.length rows);
  match rows with
  | [ r; _ ] ->
      Alcotest.(check int) "installs in window" 2 r.Stall.w_installs;
      Alcotest.(check (float 1e-9)) "window total = summed latency"
        (0.6 +. 0.7) (Stall.window_total r)
  | _ -> Alcotest.fail "unexpected window shape"

(* --- openmetrics ---------------------------------------------------------- *)

(* Problems with an OpenMetrics exposition: every sample belongs to a
   declared # TYPE family, histogram buckets are cumulative and end with an
   le="+Inf" bucket equal to _count, and the text ends with # EOF. *)
let openmetrics_problems text =
  let problems = ref [] in
  let problem fmt =
    Printf.ksprintf (fun msg -> problems := msg :: !problems) fmt
  in
  let families = Hashtbl.create 16 in
  (* histogram family -> its latest bucket's label and count *)
  let buckets = Hashtbl.create 4 in
  let family_of metric =
    if Hashtbl.mem families metric then metric
    else
      List.find_map
        (fun suffix ->
          if String.ends_with ~suffix metric then
            Some
              (String.sub metric 0 (String.length metric - String.length suffix))
          else None)
        [ "_total"; "_bucket"; "_sum"; "_count" ]
      |> Option.value ~default:metric
  in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "" ] | [ "#"; "EOF" ] -> ()
      | [ "#"; "TYPE"; name; kind ] ->
          if not (List.mem kind [ "counter"; "gauge"; "histogram" ]) then
            problem "%s: unknown family type %S" name kind;
          Hashtbl.replace families name kind
      | [ series; value ] -> (
          let metric, label =
            match String.index_opt series '{' with
            | Some i ->
                ( String.sub series 0 i,
                  String.sub series i (String.length series - i) )
            | None -> (series, "")
          in
          let family = family_of metric in
          match Hashtbl.find_opt families family with
          | None -> problem "%s has no # TYPE declaration" metric
          | Some "histogram" when String.ends_with ~suffix:"_bucket" metric ->
              let n = Option.value ~default:(-1) (int_of_string_opt value) in
              (match Hashtbl.find_opt buckets family with
              | Some (_, prev) when n < prev ->
                  problem "%s buckets are not cumulative" family
              | _ -> ());
              Hashtbl.replace buckets family (label, n)
          | Some "histogram" when String.ends_with ~suffix:"_count" metric -> (
              match Hashtbl.find_opt buckets family with
              | Some ("{le=\"+Inf\"}", n) when string_of_int n = value -> ()
              | _ -> problem "%s has no +Inf bucket equal to _count" family)
          | Some _ -> ())
      | _ -> problem "malformed line %S" line)
    (String.split_on_char '\n' text);
  if not (String.ends_with ~suffix:"\n# EOF\n" text) then
    problem "the text does not end with # EOF";
  List.rev !problems

let test_openmetrics_format () =
  let m = Metrics.create () in
  Metrics.incr ~by:3 m "net.sends";
  Metrics.set_gauge m "run.last-event-time" 1.25;
  Metrics.observe m "view.install-latency" 0.2;
  Metrics.observe m "view.install-latency" 0.4;
  let text = Openmetrics.of_metrics m in
  let has sub =
    let n = String.length text and m = String.length sub in
    let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "counter family" true
    (has "# TYPE vs_net_sends counter");
  Alcotest.(check bool) "counter sample" true (has "vs_net_sends_total 3");
  Alcotest.(check bool) "gauge sample" true
    (has "vs_run_last_event_time 1.25");
  Alcotest.(check bool) "+Inf bucket" true
    (has "vs_view_install_latency_bucket{le=\"+Inf\"} 2");
  Alcotest.(check bool) "hist count" true (has "vs_view_install_latency_count 2");
  Alcotest.(check bool) "EOF terminator" true
    (String.length text >= 6
    && String.sub text (String.length text - 6) 6 = "# EOF\n");
  Alcotest.(check string) "sanitize" "a_b:c_9_"
    (Openmetrics.sanitize "a.b:c 9%");
  Alcotest.(check string) "non-finite spelling" "+Inf"
    (Openmetrics.sample_value infinity);
  (* the committed sample (golden.exe openmetrics) is well-formed, and
     losing one histogram's +Inf bucket is caught *)
  let sample =
    In_channel.with_open_bin "openmetrics_sample.txt" In_channel.input_all
  in
  Alcotest.(check (list string)) "committed sample" []
    (openmetrics_problems sample);
  let inf_bucket = "vs_view_install_latency_bucket{le=\"+Inf\"}" in
  let mutated =
    String.split_on_char '\n' sample
    |> List.filter (fun line -> not (String.starts_with ~prefix:inf_bucket line))
    |> String.concat "\n"
  in
  Alcotest.(check bool) "sample without a +Inf bucket" true
    (String.length mutated < String.length sample
    && openmetrics_problems mutated <> [])

let () =
  Alcotest.run "vsmon"
    [
      ( "hdr",
        [
          QCheck_alcotest.to_alcotest hdr_quantile_property;
          QCheck_alcotest.to_alcotest hdr_summary_property;
          Alcotest.test_case "edge buckets" `Quick test_hdr_edges;
        ] );
      ( "series",
        [
          Alcotest.test_case "byte-deterministic across seeds" `Quick
            test_series_deterministic;
          Alcotest.test_case "scraping is schedule-invisible" `Quick
            test_series_schedule_invisible;
          Alcotest.test_case "window closing and deltas" `Quick
            test_series_windows;
          Alcotest.test_case "ring truncation" `Quick
            test_series_ring_truncation;
        ] );
      ( "stall",
        [
          Alcotest.test_case "attribution arithmetic" `Quick
            test_stall_attribution;
        ] );
      ( "openmetrics",
        [ Alcotest.test_case "exposition format" `Quick test_openmetrics_format ] );
    ]
