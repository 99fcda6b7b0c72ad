(* Tests for the observability layer: recorder levels, JSONL/Chrome
   exporters, metrics derivation, histogram quantiles, determinism of the
   rendered artifacts. *)

module Event = Vs_obs.Event
module Recorder = Vs_obs.Recorder
module Json = Vs_obs.Json
module Export = Vs_obs.Export
module Metrics = Vs_obs.Metrics
module Summary = Vs_stats.Summary
module Alloc = Vs_stats.Alloc
module Lineage = Vs_obs.Lineage
module Explain = Vs_obs.Explain
module Query = Vs_obs.Query
module Campaign = Vs_check.Campaign

let check = Alcotest.check

let p node inc = { Event.node; inc }

let v epoch node = { Event.epoch; proposer = p node 0 }

(* ---------- lib/stats quantiles (the histogram backend) ---------- *)

let test_percentile_empty () =
  let s = Summary.create () in
  check (Alcotest.float 0.) "empty p50" 0. (Summary.percentile s 0.5);
  check (Alcotest.float 0.) "empty p95" 0. (Summary.percentile s 0.95);
  check Alcotest.bool "empty max is -inf" true
    (Summary.max_value s = Float.neg_infinity)

let test_percentile_single () =
  let s = Summary.of_list [ 42. ] in
  check (Alcotest.float 0.) "single p50" 42. (Summary.percentile s 0.5);
  check (Alcotest.float 0.) "single p95" 42. (Summary.percentile s 0.95);
  check (Alcotest.float 0.) "single max" 42. (Summary.max_value s)

let test_percentile_nearest_rank () =
  (* 1..20: nearest-rank p95 is the ceil(0.95*20) = 19th smallest. *)
  let s = Summary.of_list (List.init 20 (fun i -> float_of_int (i + 1))) in
  check (Alcotest.float 0.) "p95 of 1..20" 19. (Summary.percentile s 0.95);
  check (Alcotest.float 0.) "p50 of 1..20" 10. (Summary.percentile s 0.5);
  check (Alcotest.float 0.) "p100 of 1..20" 20. (Summary.percentile s 1.0)

(* ---------- recorder levels ---------- *)

let test_recorder_levels () =
  let off = Recorder.create ~level:Recorder.Off () in
  Recorder.emit off ~time:1. Event.Heal;
  check Alcotest.int "Off records nothing" 0 (Recorder.count off);
  let full = Recorder.create ~level:Recorder.Full () in
  Recorder.emit full ~time:1. Event.Heal;
  Recorder.emit full ~time:2. (Event.Crash { proc = p 0 0 });
  check Alcotest.int "Full records" 2 (Recorder.count full);
  check (Alcotest.list (Alcotest.float 0.)) "entries oldest first" [ 1.; 2. ]
    (List.map (fun e -> e.Recorder.time) (Recorder.entries full))

let test_protocol_skips_traffic () =
  (* A lossy campaign recorded at Protocol level must contain protocol
     events but no per-message traffic. *)
  let recorder = Recorder.create ~level:Recorder.Protocol () in
  let spec = Campaign.generate ~seed:3 ~nodes:4 ~quick:true () in
  let (_ : Campaign.outcome) = Campaign.run ~obs:recorder spec in
  let names =
    List.map (fun e -> Event.type_name e.Recorder.event) (Recorder.entries recorder)
  in
  check Alcotest.bool "has protocol events" true (List.mem "install" names);
  check Alcotest.bool "no sends at Protocol" false (List.mem "send" names);
  check Alcotest.bool "no recvs at Protocol" false (List.mem "recv" names)

let test_tail () =
  let r = Recorder.create ~level:Recorder.Full () in
  for i = 1 to 10 do
    Recorder.emit r ~time:(float_of_int i) Event.Heal
  done;
  let tail = Recorder.tail ~limit:3 r in
  check (Alcotest.list (Alcotest.float 0.)) "last 3, oldest first" [ 8.; 9.; 10. ]
    (List.map (fun e -> e.Recorder.time) tail);
  check Alcotest.int "tail larger than stream" 10
    (List.length (Recorder.tail ~limit:50 r))

(* The runtime half of the zero-allocation contract (vslint's A1 is the
   static half): below Full, recording costs a send no words, and
   Hdr.record allocates none.  Every send shape is measured: a plain
   Net.send, a node-addressed Net.send_node (heartbeats), a 4-payload
   Wire.Batch on a net sized and identified by Wire, and sends with a
   Series sink or a Causal collector attached.  Corruption hooks act on
   endpoint state, not the wire, so a plain send costs the same words after
   two of them hit a live cluster.  Metrics.step, which a Series sink runs
   on every Full-level event, hashes no counter name and builds no string
   on the wire path once the counters exist: a Recv or Dup allocates
   nothing, and a Send (the sender's mode lookup) or a Drop at most 2
   words.  The bench's obs section prints the counts, at Full too. *)
let test_zero_alloc_runtime () =
  let module Net = Vs_net.Net in
  let module Wire = Vs_vsync.Wire in
  let words ~sinks ~make ~send level =
    let recorder = Recorder.create ~level () in
    List.iter
      (fun sink ->
        ignore (Recorder.add_sink recorder (sink ()) : Recorder.sink_handle))
      sinks;
    let sim = Vs_sim.Sim.create ~seed:11L ~obs:recorder () in
    let net = make sim in
    let a = p 0 0 and b = p 1 0 in
    Net.register net a ignore;
    Net.register net b ignore;
    Alloc.words_per (fun () -> send net a b)
  in
  let plain sim = Net.create sim Net.default_config in
  let to_proc net a b = Net.send net ~src:a ~dst:b 0 in
  let to_node net a b = Net.send_node net ~src:a ~dst_node:b.Event.node 0 in
  let user (u : int) = Some { Event.origin = p 0 0; mseq = u } in
  let wire sim =
    Net.create
      ~size_of:(Wire.size_of ~user:(fun (_ : int) -> 8) ~ann:(fun () -> 8))
      ~describe:Wire.kind ~idents:(Wire.idents ~user) sim Net.default_config
  in
  let (four : (int, unit) Wire.t) =
    let vid = Vs_gms.View.Id.initial (p 0 0) in
    Wire.Batch
      (List.init 4 (fun seq ->
           { Wire.vid; sender = p 0 0; seq; body = Wire.User seq }))
  in
  let batch net a b = Net.send net ~src:a ~dst:b four in
  let series () = Vs_obs.Series.observe (Vs_obs.Series.create ()) in
  let causal () = Vs_obs.Causal.observe (Vs_obs.Causal.collector ()) in
  List.iter
    (fun (shape, words) ->
      check (Alcotest.float 0.)
        (shape ^ ": words per send, Protocol = Off")
        (words Recorder.Off) (words Recorder.Protocol))
    [
      ("plain", words ~sinks:[] ~make:plain ~send:to_proc);
      ("node-addressed", words ~sinks:[] ~make:plain ~send:to_node);
      ("4-payload batch", words ~sinks:[] ~make:wire ~send:batch);
      ("series sink", words ~sinks:[ series ] ~make:plain ~send:to_proc);
      ("causal collector", words ~sinks:[ causal ] ~make:plain ~send:to_proc);
      ( "node-addressed, both sinks",
        words ~sinks:[ series; causal ] ~make:plain ~send:to_node );
    ];
  let plain_protocol () =
    words ~sinks:[] ~make:plain ~send:to_proc Recorder.Protocol
  in
  let before = plain_protocol () in
  let module Cluster = Vs_harness.Cluster in
  let module Endpoint = Vs_vsync.Endpoint in
  let c = Cluster.vsync ~seed:17L ~n:3 () in
  Cluster.run c ~until:2.0;
  (match Cluster.on_node c 0 with
  | Some ep ->
      List.iter
        (fun k -> ignore (Endpoint.corrupt ep k : string))
        [ Endpoint.Seq_skew 3; Endpoint.Stability_smear (1, 4) ]
  | None -> Alcotest.fail "node 0 has no live member");
  Cluster.run c ~until:3.0;
  check (Alcotest.float 0.) "plain: words per send after corruption" before
    (plain_protocol ());
  let record = Vs_obs.Hdr.record (Vs_obs.Hdr.create ()) in
  let samples = [ 0.0; 0.0000004; 0.0001; 0.004; 0.2; 3.5; 70.; 2.5e7 ] in
  check (Alcotest.float 0.) "words per Hdr.record" 0.
    (Alloc.words_per (fun () -> List.iter record samples));
  let d = Metrics.deriv_create () in
  let a = p 0 0 and b = p 1 0 and msg = Some { Event.origin = p 0 0; mseq = 1 } in
  Metrics.step d ~time:0.5
    (Event.Mode_change
       { proc = a; from_mode = "N"; into_mode = "R"; cause = "view" });
  List.iter
    (fun (name, most, event) ->
      let words = Alloc.words_per (fun () -> Metrics.step d ~time:1.0 event) in
      if words > most then
        Alcotest.failf "words per Metrics.step on a %s: %g > %g" name words
          most)
    [
      ( "send", 2.,
        Event.Send { src = a; dst = b; kind = "data"; bytes = 8; msg } );
      ("recv", 0., Event.Recv { src = a; dst = b; kind = "data"; msg });
      ( "drop", 2.,
        Event.Drop { src = a; dst = b; kind = "data"; reason = "loss"; msg } );
      ("dup", 0., Event.Dup { src = a; dst = b; kind = "data"; msg });
    ];
  check Alcotest.int "the sends counted under the sender's mode"
    (Metrics.counter (Metrics.deriv_metrics d) "net.sends")
    (Metrics.counter (Metrics.deriv_metrics d) "net.sends.mode.R")

(* ---------- exporters ---------- *)

let full_run seed =
  let recorder = Recorder.create ~level:Recorder.Full () in
  let spec = Campaign.generate ~seed ~nodes:4 ~quick:true () in
  let (_ : Campaign.outcome) = Campaign.run ~obs:recorder spec in
  recorder

let test_jsonl_deterministic () =
  let a = full_run 5 and b = full_run 5 in
  check Alcotest.bool "recorded something" true (Recorder.count a > 100);
  check Alcotest.string "identical seeds give byte-identical JSONL"
    (Export.jsonl_of_entries (Recorder.entries a))
    (Export.jsonl_of_entries (Recorder.entries b));
  check Alcotest.string "and byte-identical metrics summaries"
    (Metrics.to_text (Metrics.of_entries (Recorder.entries a)))
    (Metrics.to_text (Metrics.of_entries (Recorder.entries b)))

(* Real runs' bytes, pinned.  Their times take the 17-digit branch of the
   float rule, which the hand-timed schema sample never reaches.  The
   second run is shaped like vsbench's obs-full: a full-length 5-node
   campaign (EVS, with transient corruptions) whose export is about 2 MB. *)
let test_jsonl_real_run () =
  let pin name entries ~lines ~digest =
    let jsonl = Export.jsonl_of_entries entries in
    check Alcotest.int (name ^ " lines") lines
      (List.length (String.split_on_char '\n' jsonl) - 1);
    check Alcotest.string (name ^ " digest") digest
      (Digest.to_hex (Digest.string jsonl))
  in
  pin "quick" (Recorder.entries (full_run 5)) ~lines:10529
    ~digest:"411788312d23170b91c77c15eec59fd7";
  let recorder = Recorder.create ~level:Recorder.Full () in
  let spec =
    Campaign.generate ~protocol:Vs_harness.Driver.Evs ~transient:true ~seed:5
      ~nodes:5 ~quick:false ()
  in
  let (_ : Campaign.outcome) = Campaign.run ~obs:recorder spec in
  pin "full-length" (Recorder.entries recorder) ~lines:19812
    ~digest:"8d1b1c5ecc9ae13c6ab66606606f7855"

(* Explain embeds each slice entry as its JSONL line parsed back, so the
   JSON slice prints exactly as the stream does. *)
let test_explain_slice_is_jsonl () =
  let entries = Recorder.entries (full_run 5) in
  let msg = List.find_map (fun e -> Event.msg_of e.Recorder.event) entries in
  let violation =
    { Explain.property = Explain.Agreement; msg; procs = []; vids = [];
      detail = "probe" }
  in
  let ex =
    Explain.explain ~lineage:(Lineage.of_entries entries) ~entries violation
  in
  check Alcotest.bool "non-empty slice" true (ex.Explain.slice <> []);
  let lines = Export.jsonl_of_entries ex.Explain.slice in
  match Json.member "slice" (Explain.to_json ex) with
  | Some (Json.Arr items) ->
      check (Alcotest.list Alcotest.string) "each element prints as its line"
        (List.filter (fun l -> l <> "") (String.split_on_char '\n' lines))
        (List.map Json.to_string items)
  | Some _ | None -> Alcotest.fail "no slice array"

(* The [ev] value of a schema-sample line: the line must parse as a JSON
   object whose first three keys are the [t]/[c]/[ev] envelope. *)
let sample_line_type line =
  match Json.of_string line with
  | Error e -> Error ("does not parse: " ^ e)
  | Ok (Json.Obj (("t", _) :: ("c", _) :: ("ev", Json.Str ev) :: _)) -> Ok ev
  | Ok _ -> Error "is not an object led by t, c and a string ev"

(* Problems with a JSONL schema sample: every line is an object led by the
   t/c/ev envelope, and the ev values cover every wire type name, so adding
   a variant without extending the sample fails.  The bytes themselves are
   pinned by the sample's dune diff rule. *)
let trace_sample_problems text =
  let parsed =
    String.split_on_char '\n' text
    |> List.filter (fun line -> line <> "")
    |> List.map (fun line -> (line, sample_line_type line))
  in
  let covered name =
    List.exists
      (function _, Ok ev -> String.equal ev name | _, Error _ -> false)
      parsed
  in
  List.filter_map
    (fun (line, ev) ->
      match ev with
      | Ok _ -> None
      | Error e -> Some (Printf.sprintf "%s %s" line e))
    parsed
  @ List.filter_map
      (fun name ->
        if covered name then None
        else Some (Printf.sprintf "event type %S is not covered" name))
      Event.all_type_names

let test_trace_schema_sample () =
  let text =
    In_channel.with_open_bin "trace_schema_sample.jsonl" In_channel.input_all
  in
  check (Alcotest.list Alcotest.string) "committed sample" []
    (trace_sample_problems text);
  let not_quarantine line =
    match sample_line_type line with
    | Ok ev -> ev <> "quarantine"
    | Error _ -> true
  in
  let mutated =
    String.concat "\n"
      (List.filter not_quarantine (String.split_on_char '\n' text))
  in
  check Alcotest.bool "without its quarantine lines" true
    (trace_sample_problems mutated <> [])

let test_chrome_export () =
  let recorder = full_run 7 in
  let doc = Export.chrome_of_entries (Recorder.entries recorder) in
  match Json.of_string doc with
  | Error e -> Alcotest.failf "chrome export is not valid JSON: %s" e
  | Ok json -> (
      match Option.bind (Json.member "traceEvents" json) Json.to_list_opt with
      | None -> Alcotest.fail "no traceEvents array"
      | Some events ->
          check Alcotest.bool "has events" true (List.length events > 0);
          List.iter
            (fun ev ->
              let has k = Json.member k ev <> None in
              let meta =
                match Option.bind (Json.member "ph" ev) Json.to_string_opt with
                | Some "M" -> true
                | Some _ | None -> false
              in
              (* process-scoped "M" metadata carries no tid *)
              check Alcotest.bool "event has ph/pid(/tid)" true
                (has "ph" && has "pid" && (has "tid" || meta)))
            events)

(* Task spans on a synthetic stream: a finished task is one complete "X"
   span, unfinished tasks surface as instants sorted by process (p1 before
   p1.1, although p1.1 started first), and a done with no start is an
   instant of its own. *)
let test_chrome_task_spans () =
  let e time event = { Recorder.time; event } in
  let task time proc done_ =
    let task = "transfer" and vid = v 2 0 in
    e time
      (if done_ then Event.Task_done { proc; task; vid }
       else Event.Task_start { proc; task; vid })
  in
  let entries =
    [
      task 0.25 (p 0 0) false;
      task 0.375 (p 1 1) false;
      task 0.5 (p 1 0) false;
      task 0.75 (p 0 0) true;
      task 1.0 (p 2 0) true;
    ]
  in
  let app_events =
    match Json.of_string (Export.chrome_of_entries entries) with
    | Error e -> Alcotest.failf "chrome export is not valid JSON: %s" e
    | Ok json ->
        Option.value ~default:[]
          (Option.bind (Json.member "traceEvents" json) Json.to_list_opt)
        |> List.filter (fun ev ->
               Option.bind (Json.member "cat" ev) Json.to_string_opt
               = Some "app")
  in
  let field k to_s ev =
    match Json.member k ev with Some j -> to_s j | None -> "-"
  in
  let str j = Option.value ~default:"?" (Json.to_string_opt j) in
  let num j = Json.to_string j in
  check
    (Alcotest.list Alcotest.string)
    "ph name tid ts dur, in output order"
    [
      "X transfer v2@p0 0 250000.0 500000.0";
      "i transfer done 2 1000000.0 -";
      "i transfer start (unfinished) 1 500000.0 -";
      "i transfer start (unfinished) 1 375000.0 -";
    ]
    (List.map
       (fun ev ->
         String.concat " "
           [
             field "ph" str ev; field "name" str ev; field "tid" num ev;
             field "ts" num ev; field "dur" num ev;
           ])
       app_events)

(* ---------- metrics derivation on a synthetic stream ---------- *)

let test_metrics_derivation () =
  let e time event = { Recorder.time; event } in
  let entries =
    [
      e 0.0
        (Event.Propose { proc = p 0 0; vid = v 1 0; members = [ p 0 0; p 1 0 ] });
      e 0.1 (Event.Flush { proc = p 1 0; vid = v 1 0; seen = 2 });
      e 0.25
        (Event.Install
           { proc = p 1 0; vid = v 1 0; members = [ p 0 0; p 1 0 ]; sync = 3 });
      e 0.3
        (Event.Send
           { src = p 0 0; dst = p 1 0; kind = "data"; bytes = 8; msg = None });
      e 0.4
        (Event.Drop
           {
             src = p 0 0; dst = p 1 0; kind = "data"; reason = "loss";
             msg = None;
           });
    ]
  in
  let m = Metrics.of_entries entries in
  check Alcotest.int "installs counted" 1 (Metrics.counter m "gms.installs");
  check Alcotest.int "drops by reason" 1 (Metrics.counter m "net.drops.loss");
  check Alcotest.int "sends by mode default N" 1
    (Metrics.counter m "net.sends.mode.N");
  (* Histograms are HDR-bucketed: reported values are bucket upper bounds,
     within a factor (1 + error) above the exact sample. *)
  let check_hdr name exact h =
    match h with
    | None -> Alcotest.fail (name ^ ": histogram missing")
    | Some s ->
        let v = Vs_obs.Hdr.max_value s in
        let ok = v >= exact && v <= exact *. (1. +. Vs_obs.Hdr.error s) in
        check Alcotest.bool (name ^ " within bucket error") true ok
  in
  check_hdr "latency = propose->install" 0.25
    (Metrics.hist m "view.install-latency");
  check_hdr "stall = flush->install" 0.15 (Metrics.hist m "view.flush-stall");
  check_hdr "sync count" 3. (Metrics.hist m "view.sync-deliveries")

(* ---------- lineage conservation on a seeded lossy run ---------- *)

(* Every send the stream records must be accounted for — delivered, dropped
   with a reason, or still in flight at shutdown — and no data-path event
   may reference a message the fold did not track.  Shared between the
   unbatched campaign run and the batched-wire cluster run below: the
   conservation law is per payload, so it must survive payloads travelling
   inside {!Vs_vsync.Wire.Batch} envelopes unchanged. *)
let assert_conservation entries =
  let lng = Lineage.of_entries entries in
  check Alcotest.bool "messages tracked" true (lng.Lineage.lifecycles <> []);
  (* no orphans: every identity-carrying event belongs to a lifecycle *)
  List.iter
    (fun (e : Recorder.entry) ->
      match Event.msg_of e.Recorder.event with
      | None -> ()
      | Some m ->
          if Lineage.lifecycle lng m = None then
            Alcotest.failf "orphaned data-path event for %s"
              (Event.msg_to_string m))
    entries;
  let assoc_total l = List.fold_left (fun acc (_, n) -> acc + n) 0 l in
  let total_drops = ref 0 and total_received = ref 0 in
  List.iter
    (fun (l : Lineage.lifecycle) ->
      (* recount this message's wire history from the raw stream *)
      let mine = Query.run (Query.about_msg l.Lineage.l_msg) entries in
      let count ty = Query.count (Query.of_type ty) mine in
      let sends = count "send" and dups = count "dup"
      and recvs = count "recv" in
      let pre, infl =
        List.fold_left
          (fun (pre, infl) (e : Recorder.entry) ->
            match e.Recorder.event with
            | Event.Drop { reason; _ } ->
                if Event.send_time_drop reason then (pre + 1, infl)
                else (pre, infl + 1)
            | _ -> (pre, infl))
          (0, 0) mine
      in
      let name = Event.msg_to_string l.Lineage.l_msg in
      check Alcotest.int (name ^ ": copies = sends + dups") (sends + dups)
        l.Lineage.l_copies;
      check Alcotest.int (name ^ ": received") recvs l.Lineage.l_received;
      check Alcotest.int (name ^ ": send-time drops") pre
        (assoc_total l.Lineage.l_predrops);
      check Alcotest.int (name ^ ": in-flight drops") infl
        (assoc_total l.Lineage.l_inflight_drops);
      check Alcotest.int
        (name ^ ": in flight = copies - received - in-flight drops")
        (l.Lineage.l_copies - l.Lineage.l_received
        - assoc_total l.Lineage.l_inflight_drops)
        l.Lineage.l_in_flight;
      check Alcotest.bool (name ^ ": in flight >= 0") true
        (l.Lineage.l_in_flight >= 0);
      List.iter
        (fun (r, _) ->
          check Alcotest.bool (name ^ ": predrop reason " ^ r) true
            (Event.send_time_drop r))
        l.Lineage.l_predrops;
      List.iter
        (fun (r, _) ->
          check Alcotest.bool (name ^ ": in-flight reason " ^ r) true
            (not (Event.send_time_drop r)))
        l.Lineage.l_inflight_drops;
      total_drops :=
        !total_drops + assoc_total l.Lineage.l_predrops
        + assoc_total l.Lineage.l_inflight_drops;
      total_received := !total_received + l.Lineage.l_received)
    lng.Lineage.lifecycles;
  check Alcotest.bool "the lossy run actually dropped copies" true
    (!total_drops > 0);
  check Alcotest.bool "and delivered some" true (!total_received > 0);
  (* cross-check against the query layer's typed counting *)
  let sends_q = Query.(count (of_type "send" &&& carries_msg)) entries in
  let dups_q = Query.(count (of_type "dup" &&& carries_msg)) entries in
  let copies =
    List.fold_left
      (fun acc (l : Lineage.lifecycle) -> acc + l.Lineage.l_copies)
      0 lng.Lineage.lifecycles
  in
  check Alcotest.int "query counting agrees with the fold" (sends_q + dups_q)
    copies

(* E11-style network: substantial loss and duplication, unbatched wire. *)
let test_lineage_conservation () =
  let spec = Campaign.generate ~seed:13 ~nodes:4 ~quick:true () in
  let spec =
    {
      spec with
      Campaign.net =
        { spec.Campaign.net with Vs_net.Net.drop_prob = 0.2; dup_prob = 0.08 };
    }
  in
  let recorder = Recorder.create ~level:Recorder.Full () in
  let (_ : Campaign.outcome) = Campaign.run ~obs:recorder spec in
  assert_conservation (Recorder.entries recorder)

(* The same conservation law with batching on: payloads travel inside
   Wire.Batch envelopes, but the Full-level stream still records one
   identity-carrying event per payload copy, so the per-message ledger must
   balance exactly as in the unbatched run. *)
let test_lineage_conservation_batched () =
  let module Cluster = Vs_harness.Cluster in
  let module Endpoint = Vs_vsync.Endpoint in
  let recorder = Recorder.create ~level:Recorder.Full () in
  let config =
    {
      Endpoint.default_config with
      Endpoint.batching = true;
      stability_interval = Some 0.05;
      pipeline_depth = 4;
      batch_max = 32;
    }
  in
  let net_config =
    {
      Vs_net.Net.default_config with
      Vs_net.Net.drop_prob = 0.15;
      dup_prob = 0.05;
    }
  in
  let c = Cluster.vsync ~seed:909L ~obs:recorder ~net_config ~config ~n:4 () in
  Cluster.run c ~until:1.5;
  for _ = 1 to 30 do
    Cluster.multicast_from c ~node:0 ();
    Cluster.multicast_from c ~node:1 ~order:Endpoint.Total ()
  done;
  Cluster.run c ~until:6.0;
  check Alcotest.bool "the batched wire was exercised" true
    ((Cluster.stats_total c).Endpoint.batches_sent > 0);
  assert_conservation (Recorder.entries recorder)

(* Views as oracles: Lineage counts each message's copies in place and
   Causal matches each copy from its send to the entry that consumed it, so
   the two must agree on how many copies arrived or died in flight.
   Causal's message edges into identity-carrying [Recv] and [Drop] entries
   equal Lineage's receipts plus in-flight drops over every lifecycle. *)
let test_lineage_agrees_with_causal () =
  List.iter
    (fun (seed, protocol, quick, transient) ->
      let recorder = Recorder.create ~level:Recorder.Full () in
      let spec =
        Campaign.generate ~protocol ~transient ~seed ~nodes:5 ~quick ()
      in
      let (_ : Campaign.outcome) = Campaign.run ~obs:recorder spec in
      let entries = Recorder.entries recorder in
      let dag = Vs_obs.Causal.of_entries entries in
      let edges = ref 0 in
      Array.iteri
        (fun i (e : Recorder.entry) ->
          match e.Recorder.event with
          | Event.Recv { msg = Some _; _ } | Event.Drop { msg = Some _; _ } ->
              List.iter
                (fun (_, kind) ->
                  match kind with
                  | Vs_obs.Causal.Message -> incr edges
                  | Program | Barrier -> ())
                (Vs_obs.Causal.preds dag i)
          | _ -> ())
        (Vs_obs.Causal.nodes dag);
      let total = List.fold_left (fun acc (_, n) -> acc + n) 0 in
      let copies =
        List.fold_left
          (fun acc (l : Lineage.lifecycle) ->
            acc + l.Lineage.l_received + total l.Lineage.l_inflight_drops)
          0 (Lineage.of_entries entries).Lineage.lifecycles
      in
      let name = Campaign.describe spec in
      check Alcotest.bool (name ^ ": copies consumed") true (copies > 0);
      check Alcotest.int (name ^ ": causal edges = lineage copies") copies
        !edges)
    Vs_harness.Driver.
      [
        (1, Vsync, false, false); (2, Evs, false, false);
        (3, Vsync, true, true); (4, Evs, false, true); (5, Vsync, true, false);
      ]

(* Causal and Lineage share one drop classification: the five reasons Net
   emits keep their split, and a reason Net never emits (a hand-edited
   replay) is a send-time kill in both — the sender's action, consuming no
   wire copy, so the later delivery still matches the send. *)
let test_drop_classification () =
  check (Alcotest.list Alcotest.bool) "Net's reasons"
    [ true; true; true; false; false ]
    (List.map Event.send_time_drop
       [ "src-dead"; "partition"; "loss"; "dst-dead"; "partition-inflight" ]);
  let m = { Event.origin = p 0 0; mseq = 1 } in
  let e time event = { Recorder.time; event } in
  let drop =
    Event.Drop
      {
        src = p 0 0; dst = p 1 0; kind = "data"; reason = "bogus";
        msg = Some m;
      }
  in
  let entries =
    [
      e 0.1
        (Event.Send
           { src = p 0 0; dst = p 1 0; kind = "data"; bytes = 8; msg = Some m });
      e 0.2 drop;
      e 0.3 (Event.Recv { src = p 0 0; dst = p 1 0; kind = "data"; msg = Some m });
    ]
  in
  check Alcotest.bool "unknown reason: send-time" true
    (Event.send_time_drop "bogus");
  check (Alcotest.option Alcotest.string) "charged to the sender" (Some "p0")
    (Option.map Event.proc_to_string (Vs_obs.Causal.actor drop));
  let dag = Vs_obs.Causal.of_entries entries in
  check (Alcotest.list Alcotest.int) "the delivery still matches the send" []
    (Vs_obs.Causal.orphans dag);
  match Lineage.lifecycle (Lineage.of_entries entries) m with
  | None -> Alcotest.fail "message not tracked"
  | Some l ->
      check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
        "lineage counts it before the wire" [ ("bogus", 1) ] l.Lineage.l_predrops;
      check Alcotest.int "nothing left in flight" 0 l.Lineage.l_in_flight

(* ---------- canonical JSON ---------- *)

let test_json_canonical () =
  List.iter
    (fun (txt, expect) ->
      match Json.of_string txt with
      | Error e -> Alcotest.failf "%s does not parse: %s" txt e
      | Ok j -> check Alcotest.string txt expect (Json.to_string j))
    [
      ({|{"a":1,"b":[true,null,"x\n"],"t":0.25}|},
       {|{"a":1,"b":[true,null,"x\n"],"t":0.25}|});
      ({|{"t":3.0}|}, {|{"t":3.0}|});
      ("[]", "[]");
    ];
  check Alcotest.string "integer float" "3.0" (Json.float_repr 3.);
  check Alcotest.string "fraction" "0.0012" (Json.float_repr 0.0012);
  let non_finite =
    Json.(to_string (Arr [ Float nan; Float infinity; Float neg_infinity ]))
  in
  check Alcotest.string "non-finite floats print as null" "[null,null,null]"
    non_finite;
  check Alcotest.bool "and parse back" true
    (Json.of_string non_finite = Ok (Json.Arr [ Null; Null; Null ]));
  List.iter
    (fun txt ->
      check Alcotest.bool (txt ^ " overflows a double") true
        (Result.is_error (Json.of_string txt)))
    [ "5e460"; "-1E999"; "[0,1e309]"; String.make 400 '9' ]

(* The float rule as first written, through Printf: [Json.float_repr] must
   print exactly this. *)
let printf_float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    match float_of_string_opt s with
    | Some f' when Float.equal f' f -> s
    | Some _ | None -> Printf.sprintf "%.17g" f

let test_float_repr_edges () =
  check Alcotest.string "negative zero" "-0.0" (Json.float_repr (-0.0));
  check Alcotest.string "not the shortest" "1.0000000000000999"
    (Json.float_repr 1.0000000000001);
  let largest_subnormal = Float.pred Float.min_float in
  List.iter
    (fun f ->
      check Alcotest.string (Printf.sprintf "%h" f) (printf_float_repr f)
        (Json.float_repr f))
    [
      -0.0; 0.0; 1e15 -. 1.; -.(1e15 -. 1.); 1e15; -1e15; 2. ** 53.;
      Float.min_float; largest_subnormal; -.largest_subnormal; 5e-324;
      -5e-324; 1e-310; Float.max_float; Float.infinity; Float.neg_infinity;
      Float.nan; 0.1; 59.999999999999; 65536.0001220703125;
      65536.0003662109375; 1.000000000005; 7.000002613275;
      (* the doubles below powers of ten, where [Float.log10] rounds up *)
      Float.pred 0.01; Float.pred 0.1; Float.pred 100.; Float.pred 1e14;
    ];
  (* exact 17-digit ties (2^16 + 2^-13 and 2^16 + 3 * 2^-13) round to
     even *)
  check Alcotest.string "tie rounds down to even" "65536.000122070312"
    (Json.float_repr 65536.0001220703125);
  check Alcotest.string "tie rounds up to even" "65536.000366210938"
    (Json.float_repr 65536.0003662109375)

(* Any bit pattern, subnormals on their own (a shortcut through the 17-digit
   text once diverged on one), sim-like times in [0, 60), and the edges of
   the integer path: magnitudes log-uniform over 1e-5..1e16 of both signs,
   short decimals i / 10^d, the 2,000 doubles on each side of 10^k for
   k = -5..16, and exact 17-digit ties 2^j + c * 2^-m (m = 17 - E, c odd). *)
let float_repr_property =
  let subnormal bits = Int64.logand bits 0x800F_FFFF_FFFF_FFFFL in
  let signed neg x = if neg then -.x else x in
  let pow10 k = float_of_string ("1e" ^ string_of_int k) in
  let ulps x n = Int64.float_of_bits (Int64.add (Int64.bits_of_float x) n) in
  let tie j c =
    let e = int_of_float (Float.log10 (Float.ldexp 1. j)) in
    Float.ldexp 1. j +. Float.ldexp (float_of_int ((2 * c) + 1)) (e - 17)
  in
  QCheck.Test.make ~name:"float_repr is the Printf rule" ~count:10_000
    (QCheck.make ~print:(Printf.sprintf "%h")
       QCheck.Gen.(
         oneof
           [
             map Int64.float_of_bits int64;
             map (fun b -> Int64.float_of_bits (subnormal b)) int64;
             float_range 0. 60.;
             map2 (fun neg e -> signed neg (10. ** e)) bool
               (float_range (-5.) 16.);
             map2 (fun i d -> float_of_int i /. pow10 d)
               (int_range 1 10_000_000) (int_range 1 8);
             map3 (fun neg k n -> signed neg (ulps (pow10 k) (Int64.of_int n)))
               bool (int_range (-5) 16) (int_range (-2000) 2000);
             map3 (fun neg j c -> signed neg (tie j c))
               bool (int_range 0 40) (int_range 0 500);
           ]))
    (fun f -> String.equal (Json.float_repr f) (printf_float_repr f))

(* Random text over the JSON alphabet: documents built from numbers (some
   with three-digit exponents, so some overflow a double), escaped strings
   and literals, then as often as not one character inserted, deleted or
   replaced, so the error paths run too. *)
let json_text =
  let open QCheck.Gen in
  let alphabet = "{}[],:\"\\ .-+eE0123456789aflnrstu" in
  let digits = string_size ~gen:(char_range '0' '9') (int_range 1 3) in
  let number =
    map4
      (fun sign int frac exp -> sign ^ int ^ frac ^ exp)
      (oneofl [ ""; "-" ]) digits
      (oneof [ return ""; map (( ^ ) ".") digits ])
      (oneof
         [
           return "";
           map3
             (fun e sign d -> e ^ sign ^ d)
             (oneofl [ "e"; "E" ]) (oneofl [ ""; "+"; "-" ]) digits;
         ])
  in
  let str =
    map
      (fun parts -> "\"" ^ String.concat "" parts ^ "\"")
      (list_size (int_range 0 4)
         (oneofl
            [ "a"; " "; "\\n"; "\\\""; "\\\\"; "\\/"; "\\u00e9"; "\\u0001";
              "\x01"; "\xc3\xa9" ]))
  in
  let value =
    fix
      (fun self depth ->
        let leaf = oneof [ number; str; oneofl [ "true"; "false"; "null" ] ] in
        if depth = 0 then leaf
        else
          frequency
            [
              (2, leaf);
              ( 1,
                map
                  (fun vs -> "[" ^ String.concat "," vs ^ "]")
                  (list_size (int_range 0 3) (self (depth - 1))) );
              ( 1,
                map
                  (fun kvs ->
                    "{"
                    ^ String.concat ","
                        (List.map (fun (k, v) -> k ^ ":" ^ v) kvs)
                    ^ "}")
                  (list_size (int_range 0 3) (pair str (self (depth - 1)))) );
            ])
      3
  in
  let mutate text =
    let n = String.length text in
    let* pos = int_bound n in
    let* c = oneofl (List.of_seq (String.to_seq alphabet)) in
    let before = String.sub text 0 pos and c = String.make 1 c in
    let rest = String.sub text pos (n - pos) in
    let after = if pos < n then String.sub rest 1 (n - pos - 1) else "" in
    oneofl [ text; text; before ^ after; before ^ c ^ rest; before ^ c ^ after ]
  in
  value >>= mutate

let json_round_trip_property =
  QCheck.Test.make ~name:"parse/print round-trip" ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") json_text)
    (fun text ->
      match Json.of_string text with
      | exception e ->
          QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
      | Error _ -> true
      | Ok v -> Json.of_string (Json.to_string v) = Ok v)

let () =
  Alcotest.run "obs"
    [
      ( "quantiles",
        [
          Alcotest.test_case "empty" `Quick test_percentile_empty;
          Alcotest.test_case "single" `Quick test_percentile_single;
          Alcotest.test_case "nearest-rank" `Quick test_percentile_nearest_rank;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "levels" `Quick test_recorder_levels;
          Alcotest.test_case "protocol-skips-traffic" `Quick
            test_protocol_skips_traffic;
          Alcotest.test_case "tail" `Quick test_tail;
          Alcotest.test_case "zero-alloc runtime guard" `Quick
            test_zero_alloc_runtime;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "jsonl-deterministic" `Quick test_jsonl_deterministic;
          Alcotest.test_case "jsonl bytes of a real run" `Quick
            test_jsonl_real_run;
          Alcotest.test_case "explain slice is the line" `Quick
            test_explain_slice_is_jsonl;
          Alcotest.test_case "chrome" `Quick test_chrome_export;
          Alcotest.test_case "chrome task spans" `Quick test_chrome_task_spans;
          Alcotest.test_case "schema sample" `Quick test_trace_schema_sample;
        ] );
      ( "metrics",
        [ Alcotest.test_case "derivation" `Quick test_metrics_derivation ] );
      ( "lineage",
        [
          Alcotest.test_case "conservation" `Quick test_lineage_conservation;
          Alcotest.test_case "conservation (batched wire)" `Quick
            test_lineage_conservation_batched;
          Alcotest.test_case "drop classification" `Quick
            test_drop_classification;
          Alcotest.test_case "agrees with causal on copies" `Quick
            test_lineage_agrees_with_causal;
        ] );
      ( "json",
        [
          Alcotest.test_case "canonical" `Quick test_json_canonical;
          Alcotest.test_case "float_repr edge values" `Quick
            test_float_repr_edges;
          QCheck_alcotest.to_alcotest float_repr_property;
          QCheck_alcotest.to_alcotest json_round_trip_property;
        ] );
    ]
