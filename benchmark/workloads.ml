(* The benchmark's four workloads.

   Each workload runs in rounds; a round is set-up, a measured phase and a
   check phase, and [pass] runs one round.  Inputs come only from the
   round's [Rng.t], which the caller derives from the benchmark seed; the
   clusters' own simulator seeds stay fixed (1106 for kv, 2207 for the data
   plane, as in experiment T), so the program under test sees nothing of
   the benchmark seed but the inputs generated from it.

   A traced pass ([probe] given) runs the same round with wall-clock timers
   around the public calls the benchmark makes into the program: Kv.put
   and Endpoint.multicast, the recorder sinks, Campaign.run and each
   observability derivation.  The timers read an allocation-free clock and
   add to integer fields, so a traced pass must reproduce its untraced twin
   exactly; the caller checks that. *)

module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module Endpoint = Vs_vsync.Endpoint
module Wire = Vs_vsync.Wire
module Kv = Vs_apps.Kv_store
module Go = Vs_apps.Group_object
module Evs = Evs_core.Evs
module History = Evs_core.History
module Rng = Vs_util.Rng
module Campaign = Vs_check.Campaign
module Driver = Vs_harness.Driver
module Recorder = Vs_obs.Recorder
module Event = Vs_obs.Event
module Stall = Vs_obs.Stall
module Causal = Vs_obs.Causal
module Critpath = Vs_obs.Critpath
module Throughput = Vs_exp.Exp_throughput

(* ---------- per-layer tallies ---------- *)

(* Raw per-layer counts, summed over the passes of one kind (untraced or
   traced) of a run.  The [*_ns] fields are wall time and are only filled
   by traced passes. *)
type tally = {
  mutable events : int;  (* simulator events dispatched *)
  mutable sent : int;  (* net: wire messages *)
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable bytes : int;
  mutable data_sent : int;  (* vsync: Endpoint.stats *)
  mutable batches : int;
  mutable nacks : int;
  mutable to_dropped : int;
  mutable retransmits : int;  (* vsync: recorded Retransmit / Backoff *)
  mutable ctl_retries : int;
  mutable sync_delivered : int;  (* gms: recorded Install / Propose *)
  mutable installs : int;
  mutable proposals : int;
  mutable propose_wait : float;  (* summed Stall segments, sim seconds *)
  mutable flush_wait : float;
  mutable stability_wait : float;
  mutable suspects : int;  (* fd *)
  mutable false_suspects : int;  (* suspected, then heard from again *)
  mutable eviews : int;  (* evs *)
  mutable history : int;  (* apps: History.length over replicas *)
  mutable rejected : int;
  mutable unstable : int;  (* campaigns ending without a stable view *)
  mutable recorded : int;  (* obs: recorder entries *)
  mutable jsonl_bytes : int;
  mutable minor_words : float;  (* gc, over the measured phase *)
  mutable promoted_words : float;
  mutable major_collections : int;
  mutable submit_ns : int;
  mutable sink_ns : int;
  mutable metrics_ns : int;
  mutable stall_ns : int;
  mutable critpath_ns : int;
  mutable lineage_ns : int;
  mutable jsonl_ns : int;
}

let tally () =
  {
    events = 0;
    sent = 0;
    delivered = 0;
    dropped = 0;
    duplicated = 0;
    bytes = 0;
    data_sent = 0;
    batches = 0;
    nacks = 0;
    to_dropped = 0;
    retransmits = 0;
    ctl_retries = 0;
    sync_delivered = 0;
    installs = 0;
    proposals = 0;
    propose_wait = 0.;
    flush_wait = 0.;
    stability_wait = 0.;
    suspects = 0;
    false_suspects = 0;
    eviews = 0;
    history = 0;
    rejected = 0;
    unstable = 0;
    recorded = 0;
    jsonl_bytes = 0;
    minor_words = 0.;
    promoted_words = 0.;
    major_collections = 0;
    submit_ns = 0;
    sink_ns = 0;
    metrics_ns = 0;
    stall_ns = 0;
    critpath_ns = 0;
    lineage_ns = 0;
    jsonl_ns = 0;
  }

(* The fields a run of the same inputs must reproduce exactly, whether
   traced or not. *)
let counts t =
  [
    ("events", float_of_int t.events);
    ("sent", float_of_int t.sent);
    ("delivered", float_of_int t.delivered);
    ("dropped", float_of_int t.dropped);
    ("duplicated", float_of_int t.duplicated);
    ("bytes", float_of_int t.bytes);
    ("data_sent", float_of_int t.data_sent);
    ("batches", float_of_int t.batches);
    ("nacks", float_of_int t.nacks);
    ("to_dropped", float_of_int t.to_dropped);
    ("retransmits", float_of_int t.retransmits);
    ("ctl_retries", float_of_int t.ctl_retries);
    ("sync_delivered", float_of_int t.sync_delivered);
    ("installs", float_of_int t.installs);
    ("proposals", float_of_int t.proposals);
    ("propose_wait", t.propose_wait);
    ("flush_wait", t.flush_wait);
    ("stability_wait", t.stability_wait);
    ("suspects", float_of_int t.suspects);
    ("false_suspects", float_of_int t.false_suspects);
    ("eviews", float_of_int t.eviews);
    ("history", float_of_int t.history);
    ("rejected", float_of_int t.rejected);
    ("unstable", float_of_int t.unstable);
    ("recorded", float_of_int t.recorded);
    ("jsonl_bytes", float_of_int t.jsonl_bytes);
  ]

(* Allocation counts depend on what the benchmark itself allocates, so a
   traced pass (which keeps spans) differs from its twin here; two runs of
   the same kind must still agree. *)
let gc_counts t =
  [ ("minor_words", t.minor_words); ("promoted_words", t.promoted_words) ]

(* Fold the recorded stream (from sim time [from]) into the tally.  A
   suspicion is false when the same incarnation is later heard from again
   (a crashed incarnation never is). *)
let add_stream t ~from entries =
  let suspected = Hashtbl.create 16 in
  List.iter
    (fun { Recorder.time; event } ->
      if time >= from then
        match event with
        | Event.Send { bytes; _ } ->
            t.sent <- t.sent + 1;
            t.bytes <- t.bytes + bytes
        | Event.Recv _ -> t.delivered <- t.delivered + 1
        | Event.Drop _ -> t.dropped <- t.dropped + 1
        | Event.Dup _ -> t.duplicated <- t.duplicated + 1
        | Event.Retransmit { count; _ } -> t.retransmits <- t.retransmits + count
        | Event.Backoff _ -> t.ctl_retries <- t.ctl_retries + 1
        | Event.Suspect { proc; peer } ->
            t.suspects <- t.suspects + 1;
            Hashtbl.replace suspected (proc, peer) ()
        | Event.Unsuspect { proc; peer } ->
            if Hashtbl.mem suspected (proc, peer) then begin
              t.false_suspects <- t.false_suspects + 1;
              Hashtbl.remove suspected (proc, peer)
            end
        | Event.Propose _ -> t.proposals <- t.proposals + 1
        | Event.Install { sync; _ } ->
            t.installs <- t.installs + 1;
            t.sync_delivered <- t.sync_delivered + sync
        | Event.Eview _ -> t.eviews <- t.eviews + 1
        | _ -> ())
    entries

let add_stalls t attrs =
  List.iter
    (fun (a : Stall.attr) ->
      t.propose_wait <- t.propose_wait +. a.Stall.a_propose_wait;
      t.flush_wait <- t.flush_wait +. a.Stall.a_flush_wait;
      t.stability_wait <- t.stability_wait +. a.Stall.a_stability_wait)
    attrs

let add_net t (before : Net.stats) (after : Net.stats) =
  t.sent <- t.sent + after.Net.sent - before.Net.sent;
  t.delivered <- t.delivered + after.Net.delivered - before.Net.delivered;
  t.dropped <- t.dropped + after.Net.dropped - before.Net.dropped;
  t.duplicated <- t.duplicated + after.Net.duplicated - before.Net.duplicated;
  t.bytes <- t.bytes + after.Net.bytes_sent - before.Net.bytes_sent

let sum_endpoint_stats stats =
  List.fold_left
    (fun (d, b, n, x) (s : Endpoint.stats) ->
      ( d + s.Endpoint.data_sent,
        b + s.Endpoint.batches_sent,
        n + s.Endpoint.nacks_sent,
        x + s.Endpoint.to_dropped ))
    (0, 0, 0, 0) stats

let add_endpoints t before after =
  let d0, b0, n0, x0 = sum_endpoint_stats before in
  let d1, b1, n1, x1 = sum_endpoint_stats after in
  t.data_sent <- t.data_sent + d1 - d0;
  t.batches <- t.batches + b1 - b0;
  t.nacks <- t.nacks + n1 - n0;
  t.to_dropped <- t.to_dropped + x1 - x0

type gc_mark = { g_minor : float; g_promoted : float; g_major : int }

let gc_mark () =
  let _, promoted, _ = Gc.counters () in
  {
    g_minor = Gc.minor_words ();
    g_promoted = promoted;
    g_major = (Gc.quick_stat ()).Gc.major_collections;
  }

let add_gc t before =
  let now = gc_mark () in
  t.minor_words <- t.minor_words +. now.g_minor -. before.g_minor;
  t.promoted_words <- t.promoted_words +. now.g_promoted -. before.g_promoted;
  t.major_collections <- t.major_collections + now.g_major - before.g_major

(* ---------- passes ---------- *)

type probe = { spans : Spans.t; measure_id : int }

type pass = {
  marks : int array;
      (* wall clock, ns: set-up is [marks.(0), marks.(1)), the measured
         phase [marks.(1), marks.(2)), the check phase [marks.(2), marks.(3)) *)
  ops : int;  (* committed puts or multicasts, or checked campaigns *)
  attempted : int;
  failed : int;
  problems : string list;  (* failed correctness checks *)
  latencies : float array;  (* commit or install latencies, sim seconds *)
}

(* Time [f] as a child span of the measured phase; [(f (), 0)] untraced. *)
let phase probe name f =
  match probe with
  | None -> (f (), 0)
  | Some p ->
      let start_ns = Spans.now_ns () in
      let r = f () in
      let stop_ns = Spans.now_ns () in
      Spans.add p.spans ~id:(Spans.fresh p.spans) ~parent:p.measure_id ~name
        ~start_ns ~stop_ns;
      (r, stop_ns - start_ns)

(* Poisson arrival times in [start, stop) at [rate], each with a uniformly
   drawn replica. *)
let arrivals rng ~rate ~start ~stop ~replicas =
  let rec go t acc =
    let t = t +. Rng.exponential rng (1.0 /. rate) in
    if t < stop then go t ((t, Rng.int rng replicas) :: acc) else List.rev acc
  in
  let a = Array.of_list (go start []) in
  (Array.map fst a, Array.map snd a)

(* Which replicas applied each op, and the latency from its due time to the
   last replica's apply, in commit order. *)
type commits = {
  due : float array;
  seen : int array;  (* bit r set once replica r applied the op *)
  lat : float array;
  full : int;
  mutable committed : int;
  mutable duplicates : int;
  mutable stray : int;  (* applies naming no op of this round *)
}

let commits due ~replicas =
  let n = Array.length due in
  {
    due;
    seen = Array.make n 0;
    lat = Array.make n 0.;
    full = (1 lsl replicas) - 1;
    committed = 0;
    duplicates = 0;
    stray = 0;
  }

let apply c sim ~replica ~op =
  if op < 0 || op >= Array.length c.seen then c.stray <- c.stray + 1
  else
    let bit = 1 lsl replica in
    let s = c.seen.(op) in
    if s land bit <> 0 then c.duplicates <- c.duplicates + 1
    else begin
      c.seen.(op) <- s lor bit;
      if s lor bit = c.full then begin
        c.lat.(c.committed) <- Sim.now sim -. c.due.(op);
        c.committed <- c.committed + 1
      end
    end

let commit_problems c ~rejected =
  let lost = Array.length c.due - rejected - c.committed in
  List.concat
    [
      (if c.duplicates > 0 then
         [ Printf.sprintf "%d duplicate deliveries" c.duplicates ]
       else []);
      (if c.stray > 0 then [ Printf.sprintf "%d deliveries of unknown ops" c.stray ]
       else []);
      (if lost > 0 then
         [ Printf.sprintf "%d accepted ops not delivered at every replica" lost ]
       else []);
    ]

(* Schedule [submit op] at each op's due time, one pending arrival at a
   time, as an open-loop generator on simulated time. *)
let schedule_arrivals sim due submit =
  let n = Array.length due in
  let next = ref 0 in
  let rec fire () =
    let op = !next in
    next := op + 1;
    submit op;
    if op + 1 < n then ignore (Sim.at sim due.(op + 1) fire : Sim.handle)
  in
  if n > 0 then ignore (Sim.at sim due.(0) fire : Sim.handle)

(* The measured phase of kv and dp: run [sim] until [until], then add to the
   tally what it did — events, net and endpoint counters, the stream and
   stalls recorded from sim time [from], the Gc.  Returns the phase's
   wall-clock start and stop. *)
let measure_cluster tally sim net endpoint_stats ~from ~until =
  let eps0 = endpoint_stats () in
  let net0 = Net.stats net in
  let events0 = Sim.events_processed sim in
  let recorded0 = Recorder.count (Sim.obs sim) in
  Gc.minor ();
  let gc0 = gc_mark () in
  let t1 = Spans.now_ns () in
  ignore (Sim.run ~until sim : Sim.stop_reason);
  let t2 = Spans.now_ns () in
  add_gc tally gc0;
  tally.events <- tally.events + Sim.events_processed sim - events0;
  add_net tally net0 (Net.stats net);
  add_endpoints tally eps0 (endpoint_stats ());
  let entries = Recorder.entries (Sim.obs sim) in
  add_stream tally ~from entries;
  add_stalls tally
    (List.filter (fun a -> a.Stall.a_time >= from) (Stall.of_entries entries));
  tally.recorded <- tally.recorded + Recorder.count (Sim.obs sim) - recorded0;
  (t1, t2)

(* ---------- kv-steady ---------- *)

let kv_replicas = 6
let kv_rate = 8_000.
let kv_keys = 128
let kv_warmup = 3.0
let kv_drain = 1.0

let kv_config =
  { Throughput.base_config with Endpoint.batching = true; pipeline_depth = 8 }

let kv_key_names = Array.init kv_keys (Printf.sprintf "k%d")

let same_entry a b =
  match (a, b) with
  | None, None -> true
  | Some (v, (s : Kv.stamp)), Some (v', (s' : Kv.stamp)) ->
      String.equal v v'
      && Int.equal s.Kv.counter s'.Kv.counter
      && Int.equal s.Kv.origin s'.Kv.origin
  | Some _, None | None, Some _ -> false

let kv_pass ~window rng tally probe =
  let t0 = Spans.now_ns () in
  let start = kv_warmup in
  let due, replica_of =
    arrivals rng ~rate:kv_rate ~start ~stop:(start +. window) ~replicas:kv_replicas
  in
  let n = Array.length due in
  let sample_key =
    Throughput.make_key_sampler ~rng ~keys:kv_keys ~zipf:(Some 1.1)
  in
  let key_of = Array.init n (fun _ -> kv_key_names.(sample_key ())) in
  let value_of = Array.init n string_of_int in
  let c = commits due ~replicas:kv_replicas in
  let sim = Sim.create ~seed:1106L () in
  let net = Kv.make_net sim Net.default_config in
  let universe = List.init kv_replicas Fun.id in
  let on_apply replica ~origin:_ ~key:_ ~value =
    match int_of_string_opt value with
    | Some op -> apply c sim ~replica ~op
    | None -> c.stray <- c.stray + 1
  in
  let kvs =
    Array.init kv_replicas (fun node ->
        Kv.create sim net ~me:(Proc_id.initial node) ~universe
          ~on_apply:(on_apply node) ~config:kv_config ~policy:Kv.Lww ())
  in
  ignore (Sim.run ~until:start sim : Sim.stop_reason);
  let rejected = ref 0 in
  let traced = Option.is_some probe in
  schedule_arrivals sim due (fun op ->
      let kv = kvs.(replica_of.(op)) in
      let r =
        if traced then begin
          let s = Spans.now_ns () in
          let r = Kv.put kv ~key:key_of.(op) ~value:value_of.(op) in
          tally.submit_ns <- tally.submit_ns + (Spans.now_ns () - s);
          r
        end
        else Kv.put kv ~key:key_of.(op) ~value:value_of.(op)
      in
      match r with Ok () -> () | Error `Not_serving -> incr rejected);
  let endpoint_stats () =
    Array.to_list
      (Array.map (fun kv -> Evs.endpoint_stats (Go.evs (Kv.obj kv))) kvs)
  in
  let t1, t2 =
    measure_cluster tally sim net endpoint_stats ~from:start
      ~until:(start +. window +. kv_drain)
  in
  tally.rejected <- tally.rejected + !rejected;
  Array.iter
    (fun kv -> tally.history <- tally.history + History.length (Go.history (Kv.obj kv)))
    kvs;
  let diverged =
    Array.fold_left
      (fun acc key ->
        let v0 = Kv.get kvs.(0) ~key in
        if Array.for_all (fun kv -> same_entry v0 (Kv.get kv ~key)) kvs then acc
        else acc + 1)
      0 kv_key_names
  in
  let problems =
    commit_problems c ~rejected:!rejected
    @
    if diverged > 0 then [ Printf.sprintf "%d keys differ across replicas" diverged ]
    else []
  in
  {
    marks = [| t0; t1; t2; Spans.now_ns () |];
    ops = c.committed;
    attempted = n;
    failed = n - c.committed;
    problems;
    latencies = Array.sub c.lat 0 c.committed;
  }

(* ---------- dp-unbatched ---------- *)

(* Six members, as in kv-steady, at a rate that keeps far fewer messages
   buffered and in flight: with 16 members at 100,000/s the rate followed
   the host's slow periods 2.3-2.5 times as strongly as kv-steady's, more
   than the bound on ops_per_s allows. *)
let dp_replicas = 6
let dp_rate = 25_000.
let dp_warmup = 5.0
let dp_drain = 1.0

let dp_pass ~window rng tally probe =
  let t0 = Spans.now_ns () in
  let start = dp_warmup in
  let due, replica_of =
    arrivals rng ~rate:dp_rate ~start ~stop:(start +. window) ~replicas:dp_replicas
  in
  let n = Array.length due in
  let c = commits due ~replicas:dp_replicas in
  (* Each replica's delivery order, folded into one integer. *)
  let digests = Array.make dp_replicas 0 in
  let sim = Sim.create ~seed:2207L () in
  let size_of = Wire.size_of ~user:(fun (_ : int) -> 8) ~ann:(fun () -> 8) in
  let net = Net.create ~size_of sim Net.default_config in
  let universe = List.init dp_replicas Fun.id in
  let eps =
    Array.init dp_replicas (fun node ->
        let callbacks =
          {
            Endpoint.on_view = (fun _ -> ());
            on_message =
              (fun ~sender:_ (op : int) ->
                apply c sim ~replica:node ~op;
                digests.(node) <- (digests.(node) * 1_000_003) + op);
          }
        in
        Endpoint.create sim net ~me:(Net.fresh_incarnation net node) ~universe
          ~config:Throughput.base_config ~callbacks)
  in
  ignore (Sim.run ~until:start sim : Sim.stop_reason);
  let assembled =
    Array.for_all
      (fun ep -> List.length (Endpoint.view ep).View.members = dp_replicas)
      eps
  in
  let traced = Option.is_some probe in
  schedule_arrivals sim due (fun op ->
      let ep = eps.(replica_of.(op)) in
      if traced then begin
        let s = Spans.now_ns () in
        Endpoint.multicast ep ~order:Endpoint.Total op;
        tally.submit_ns <- tally.submit_ns + (Spans.now_ns () - s)
      end
      else Endpoint.multicast ep ~order:Endpoint.Total op);
  let t1, t2 =
    measure_cluster tally sim net
      (fun () -> Array.to_list (Array.map Endpoint.stats eps))
      ~from:start ~until:(start +. window +. dp_drain)
  in
  let problems =
    List.concat
      [
        (if assembled then []
         else [ "cluster did not assemble within the warm-up" ]);
        commit_problems c ~rejected:0;
        (if Array.for_all (Int.equal digests.(0)) digests then []
         else [ "replicas delivered in different orders" ]);
      ]
  in
  {
    marks = [| t0; t1; t2; Spans.now_ns () |];
    ops = c.committed;
    attempted = n;
    failed = n - c.committed;
    problems;
    latencies = Array.sub c.lat 0 c.committed;
  }

(* ---------- campaign workloads ---------- *)

let campaign_nodes = 5

(* [n] campaigns, each with its own seed from the round's generator, the
   protocols alternating.  A seed of its own (rather than one seed under
   both protocols) makes every campaign an independent draw of the fault
   mix, which narrows the seed-to-seed spread of the latency percentiles
   for the same work. *)
let campaign_specs rng ~n =
  Array.init n (fun i ->
      let protocol = if i mod 2 = 0 then Driver.Vsync else Driver.Evs in
      Campaign.generate ~protocol ~seed:(Rng.int rng 1_000_000_000)
        ~nodes:campaign_nodes ~quick:false ())

let violation_problems outcomes =
  List.filter_map
    (fun (spec, (o : Campaign.outcome)) ->
      match o.Campaign.violations with
      | [] -> None
      | v :: _ ->
          Some
            (Printf.sprintf "%s: %d violation(s), first: %s"
               (Campaign.describe spec)
               (List.length o.Campaign.violations)
               v))
    outcomes

let churn_pass ~campaigns rng tally probe =
  let t0 = Spans.now_ns () in
  let specs = campaign_specs rng ~n:campaigns in
  Gc.minor ();
  let gc0 = gc_mark () in
  let t1 = Spans.now_ns () in
  let runs =
    Array.map
      (fun spec ->
        let recorder = Recorder.create ~level:Recorder.Protocol () in
        let outcome, _ =
          phase probe "campaign" (fun () -> Campaign.run ~obs:recorder spec)
        in
        (spec, outcome, recorder))
      specs
  in
  let t2 = Spans.now_ns () in
  add_gc tally gc0;
  let latencies = ref [] in
  Array.iter
    (fun (_, (o : Campaign.outcome), recorder) ->
      let entries = Recorder.entries recorder in
      let attrs = Stall.of_entries entries in
      List.iter (fun a -> latencies := Stall.total a :: !latencies) attrs;
      add_stream tally ~from:0. entries;
      add_stalls tally attrs;
      tally.events <- tally.events + o.Campaign.events;
      tally.recorded <- tally.recorded + Recorder.count recorder;
      if not o.Campaign.stable then tally.unstable <- tally.unstable + 1)
    runs;
  let problems =
    violation_problems
      (Array.to_list (Array.map (fun (spec, o, _) -> (spec, o)) runs))
  in
  {
    marks = [| t0; t1; t2; Spans.now_ns () |];
    ops = Array.length specs;
    attempted = Array.length specs;
    failed = List.length problems;
    problems;
    latencies = Array.of_list (List.rev !latencies);
  }

type observed = {
  o_spec : Campaign.spec;
  o_outcome : Campaign.outcome;
  o_recorder : Recorder.t;
  o_attrs : Stall.attr list;
  o_dag : Causal.t;
  o_consistent : bool;
}

let obs_pass ~campaigns rng tally probe =
  let t0 = Spans.now_ns () in
  let specs = campaign_specs rng ~n:campaigns in
  Gc.minor ();
  let gc0 = gc_mark () in
  let t1 = Spans.now_ns () in
  let traced = Option.is_some probe in
  let timed_sink f ~time ev =
    if traced then begin
      let s = Spans.now_ns () in
      f ~time ev;
      tally.sink_ns <- tally.sink_ns + (Spans.now_ns () - s)
    end
    else f ~time ev
  in
  let runs =
    Array.map
      (fun spec ->
        let recorder = Recorder.create ~level:Recorder.Full () in
        let series = Vs_obs.Series.create () in
        let collector = Causal.collector () in
        ignore
          (Recorder.add_sink recorder (timed_sink (Vs_obs.Series.observe series))
            : Recorder.sink_handle);
        ignore
          (Recorder.add_sink recorder (timed_sink (Causal.observe collector))
            : Recorder.sink_handle);
        let outcome, _ =
          phase probe "campaign" (fun () -> Campaign.run ~obs:recorder spec)
        in
        let entries = Recorder.entries recorder in
        let (_ : Vs_obs.Metrics.t), ns =
          phase probe "metrics" (fun () -> Vs_obs.Metrics.of_entries entries)
        in
        tally.metrics_ns <- tally.metrics_ns + ns;
        let attrs, ns = phase probe "stall" (fun () -> Stall.of_entries entries) in
        tally.stall_ns <- tally.stall_ns + ns;
        let (dag, consistent), ns =
          phase probe "critpath" (fun () ->
              let dag = Causal.of_collector collector in
              (dag, Critpath.consistent_with_stall (Critpath.of_dag dag) attrs))
        in
        tally.critpath_ns <- tally.critpath_ns + ns;
        let (_ : Vs_obs.Lineage.t), ns =
          phase probe "lineage" (fun () -> Vs_obs.Lineage.of_entries entries)
        in
        tally.lineage_ns <- tally.lineage_ns + ns;
        let jsonl, ns =
          phase probe "jsonl" (fun () -> Vs_obs.Export.jsonl_of_entries entries)
        in
        tally.jsonl_ns <- tally.jsonl_ns + ns;
        tally.jsonl_bytes <- tally.jsonl_bytes + String.length jsonl;
        {
          o_spec = spec;
          o_outcome = outcome;
          o_recorder = recorder;
          o_attrs = attrs;
          o_dag = dag;
          o_consistent = consistent;
        })
      specs
  in
  let t2 = Spans.now_ns () in
  add_gc tally gc0;
  let latencies = ref [] in
  let structural = ref [] in
  Array.iter
    (fun r ->
      List.iter (fun a -> latencies := Stall.total a :: !latencies) r.o_attrs;
      add_stream tally ~from:0. (Recorder.entries r.o_recorder);
      add_stalls tally r.o_attrs;
      tally.events <- tally.events + r.o_outcome.Campaign.events;
      tally.recorded <- tally.recorded + Recorder.count r.o_recorder;
      if not r.o_outcome.Campaign.stable then tally.unstable <- tally.unstable + 1;
      let name = Campaign.describe r.o_spec in
      if not r.o_consistent then
        structural :=
          (name ^ ": critical path disagrees with the stall attribution")
          :: !structural;
      (match Causal.validate r.o_dag with
      | Ok () -> ()
      | Error e -> structural := (name ^ ": causal DAG invalid: " ^ e) :: !structural);
      match Causal.orphans r.o_dag with
      | [] -> ()
      | o ->
          structural :=
            Printf.sprintf "%s: %d orphan receives" name (List.length o)
            :: !structural)
    runs;
  let violations =
    violation_problems
      (Array.to_list (Array.map (fun r -> (r.o_spec, r.o_outcome)) runs))
  in
  {
    marks = [| t0; t1; t2; Spans.now_ns () |];
    ops = Array.length specs;
    attempted = Array.length specs;
    failed = List.length violations;
    problems = violations @ List.rev !structural;
    latencies = Array.of_list (List.rev !latencies);
  }

(* ---------- the registry ---------- *)

type t = {
  name : string;
  round_s : float;
      (* wall seconds one full-size round takes on the reference machine
         (2-core x86-64 container); [--seconds] is divided by it to size a
         run, so the work done depends only on the arguments *)
  pass : smoke:bool -> Rng.t -> tally -> probe option -> pass;
}

let all =
  [
    {
      name = "kv-steady";
      round_s = 0.45;
      pass =
        (fun ~smoke -> kv_pass ~window:(if smoke then 0.5 else 10.0));
    };
    {
      name = "dp-unbatched";
      round_s = 0.37;
      pass =
        (fun ~smoke -> dp_pass ~window:(if smoke then 0.04 else 1.0));
    };
    {
      name = "churn-check";
      round_s = 0.31;
      pass = (fun ~smoke -> churn_pass ~campaigns:(if smoke then 4 else 20));
    };
    {
      name = "obs-full";
      round_s = 0.45;
      pass = (fun ~smoke -> obs_pass ~campaigns:(if smoke then 2 else 4));
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all
