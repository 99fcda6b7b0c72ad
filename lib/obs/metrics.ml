(* Metrics registry plus the derivation pass that folds a recorded event
   stream into counters / gauges / simulated-time histograms.  All
   enumeration is sorted so two identically-seeded runs render byte-identical
   summaries.

   Histograms are fixed-memory [Hdr] instances (1% log buckets), so a
   registry's footprint is bounded no matter how long the run: the vsmon
   series layer scrapes a live registry on every window without the cost
   growing with the number of recorded samples. *)

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  hists : (string, Hdr.t) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 8;
    hists = Hashtbl.create 16;
  }

let incr ?(by = 1) t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace t.counters name (ref by)

let set_gauge t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> r := v
  | None -> Hashtbl.replace t.gauges name (ref v)

let observe t name v =
  match Hashtbl.find_opt t.hists name with
  | Some h -> Hdr.record h v
  | None ->
      let h = Hdr.create () in
      Hdr.record h v;
      Hashtbl.replace t.hists name h

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let hist t name = Hashtbl.find_opt t.hists name

let counters t =
  List.map
    (fun (k, r) -> (k, !r))
    (Vs_util.Hashtblx.sorted_bindings ~cmp:String.compare t.counters)

let gauges t =
  List.map
    (fun (k, r) -> (k, !r))
    (Vs_util.Hashtblx.sorted_bindings ~cmp:String.compare t.gauges)

let hists t = Vs_util.Hashtblx.sorted_bindings ~cmp:String.compare t.hists

(* --- derivation from an event stream ------------------------------------- *)

(* Incremental derivation state.  [step] consumes one timestamped event and
   updates the registry in place, so the same fold serves both the
   end-of-run [of_entries] pass and the vsmon series sink, which feeds
   events as the simulation emits them. *)
type deriv = {
  metrics : t;
  (* current app mode per node, for the messages-per-mode split *)
  node_mode : (int, string) Hashtbl.t;
  (* propose / flush-ack anchors, for install latency and flush stall *)
  anchors : Stall.tracker;
  (* open tasks per (proc, task kind) *)
  tasks : (Event.proc * string, float) Hashtbl.t;
}

let deriv_create () =
  {
    metrics = create ();
    node_mode = Hashtbl.create 8;
    anchors = Stall.tracker ();
    tasks = Hashtbl.create 8;
  }

let deriv_metrics d = d.metrics

let step d ~time (event : Event.t) =
  let m = d.metrics in
  let mode_of (p : Event.proc) =
    match Hashtbl.find_opt d.node_mode p.node with Some s -> s | None -> "N"
  in
  set_gauge m "run.last-event-time" time;
  (match Stall.step d.anchors ~time event with
  | Some i ->
      Option.iter
        (fun t0 -> observe m "view.install-latency" (time -. t0))
        i.Stall.i_proposed;
      Option.iter
        (fun (t0, _) -> observe m "view.flush-stall" (time -. t0))
        i.Stall.i_own_flush
  | None -> ());
  match event with
  | Event.Send { src; _ } ->
      incr m "net.sends";
      incr m ("net.sends.mode." ^ mode_of src)
  | Event.Recv _ -> incr m "net.recvs"
  | Event.Drop { reason; _ } ->
      incr m "net.drops";
      incr m ("net.drops." ^ reason)
  | Event.Dup _ -> incr m "net.dups"
  | Event.Retransmit { count; peer; _ } ->
      incr ~by:count m "vsync.retransmits";
      if peer then incr ~by:count m "vsync.retransmits.peer"
  | Event.Backoff _ -> incr m "vsync.backoffs"
  | Event.Suspect _ -> incr m "fd.suspects"
  | Event.Unsuspect _ -> incr m "fd.unsuspects"
  | Event.Propose _ -> incr m "gms.proposes"
  | Event.Flush _ -> incr m "gms.flushes"
  | Event.Install { sync; _ } ->
      incr m "gms.installs";
      observe m "view.sync-deliveries" (float_of_int sync)
  | Event.Eview _ -> incr m "evs.eviews"
  | Event.Mode_change { proc; into_mode; cause; _ } ->
      incr m ("mode.transitions." ^ cause);
      Hashtbl.replace d.node_mode proc.node into_mode
  | Event.Settle _ -> incr m "app.settles"
  | Event.Task_start { proc; task; _ } ->
      let key = (proc, task) in
      if not (Hashtbl.mem d.tasks key) then Hashtbl.replace d.tasks key time
  | Event.Task_done { proc; task; _ } ->
      let key = (proc, task) in
      (match Hashtbl.find_opt d.tasks key with
      | Some t0 ->
          Hashtbl.remove d.tasks key;
          observe m ("task." ^ task) (time -. t0)
      | None -> ())
  | Event.Crash _ -> incr m "faults.crashes"
  | Event.Partition _ -> incr m "faults.partitions"
  | Event.Heal -> incr m "faults.heals"
  | Event.Corrupt _ -> incr m "faults.corruptions"
  | Event.Quarantine _ -> ()
  | Event.Note _ -> ()

let of_entries (entries : Recorder.entry list) =
  let d = deriv_create () in
  List.iter (fun (e : Recorder.entry) -> step d ~time:e.time e.event) entries;
  d.metrics

(* --- the scrape ---------------------------------------------------------- *)

(* One immutable reading of the registry: the sorted enumerations, with each
   histogram cut to the summary every renderer prints.  [to_json],
   [to_tables] and the series snapshots all render from it. *)
type summary = {
  h_n : int;
  h_p50 : float;
  h_p95 : float;
  h_p99 : float;
  h_max : float;
  h_mean : float;
}

type scrape = {
  s_counters : (string * int) list;
  s_gauges : (string * float) list;
  s_hists : (string * summary) list;
}

let summary h =
  {
    h_n = Hdr.count h;
    h_p50 = Hdr.percentile h 0.5;
    h_p95 = Hdr.percentile h 0.95;
    h_p99 = Hdr.percentile h 0.99;
    h_max = Hdr.max_value h;
    h_mean = Hdr.mean h;
  }

let scrape t =
  {
    s_counters = counters t;
    s_gauges = gauges t;
    s_hists = List.map (fun (k, h) -> (k, summary h)) (hists t);
  }

(* --- rendering ----------------------------------------------------------- *)

let to_tables t =
  let s = scrape t in
  let table title columns row = function
    | [] -> None
    | rows ->
        let tbl = Vs_stats.Table.create ~title ~columns in
        List.iter (fun r -> Vs_stats.Table.add_row tbl (row r)) rows;
        Some tbl
  in
  let f4 = Vs_stats.Table.ffloat ~decimals:4 in
  List.filter_map Fun.id
    [
      table "metrics: counters" [ "metric"; "count" ]
        (fun (k, v) -> [ k; Vs_stats.Table.fint v ])
        s.s_counters;
      table "metrics: gauges" [ "metric"; "value" ]
        (fun (k, v) -> [ k; f4 v ])
        s.s_gauges;
      table "metrics: histograms (simulated time)"
        [ "metric"; "n"; "p50"; "p95"; "p99"; "max" ]
        (fun (k, h) ->
          [
            k; Vs_stats.Table.fint h.h_n; f4 h.h_p50; f4 h.h_p95; f4 h.h_p99;
            f4 h.h_max;
          ])
        s.s_hists;
    ]

let to_text t =
  String.concat "\n" (List.map Vs_stats.Table.to_string (to_tables t))

let scrape_fields s =
  let obj f kvs = Json.Obj (List.map (fun (k, v) -> (k, f v)) kvs) in
  let summary_json h =
    Json.Obj
      [
        ("n", Json.Int h.h_n);
        ("p50", Json.Float h.h_p50);
        ("p95", Json.Float h.h_p95);
        ("p99", Json.Float h.h_p99);
        ("max", Json.Float h.h_max);
        ("mean", Json.Float h.h_mean);
      ]
  in
  [
    ("counters", obj (fun v -> Json.Int v) s.s_counters);
    ("gauges", obj (fun v -> Json.Float v) s.s_gauges);
    ("histograms", obj summary_json s.s_hists);
  ]

let to_json t = Json.Obj (scrape_fields (scrape t))
