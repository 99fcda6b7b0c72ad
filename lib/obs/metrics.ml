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

(* A registry entry the fold bumps on every event of its kind, looked up by
   name once, at its first bump.  So it enters the registry exactly when
   [incr] or [set_gauge] by name would have put it there, and every scrape
   prints the same bytes; later bumps hash nothing and build no string. *)
type 'a cell = { name : string; mutable slot : 'a ref option }

let cell name = { name; slot = None }

let resolve tbl c init =
  match c.slot with
  | Some r -> r
  | None ->
      let r =
        match Hashtbl.find_opt tbl c.name with
        | Some r -> r
        | None ->
            let r = ref init in
            Hashtbl.replace tbl c.name r;
            r
      in
      c.slot <- Some r;
      r

let bump_by t c by =
  let r = resolve t.counters c 0 in
  r := !r + by

let bump t c = bump_by t c 1

let set t c v = resolve t.gauges c v := v

(* Incremental derivation state.  [step] consumes one timestamped event and
   updates the registry in place, so the same fold serves both the
   end-of-run [of_entries] pass and the vsmon series sink, which feeds
   events as the simulation emits them. *)
type deriv = {
  metrics : t;
  last_time : float cell;
  sends : int cell;
  recvs : int cell;
  drops : int cell;
  dups : int cell;
  retransmits : int cell;
  peer_retransmits : int cell;
  backoffs : int cell;
  suspects : int cell;
  unsuspects : int cell;
  proposes : int cell;
  flushes : int cell;
  installs : int cell;
  eviews : int cell;
  settles : int cell;
  crashes : int cell;
  partitions : int cell;
  heals : int cell;
  corruptions : int cell;
  (* each node's "net.sends.mode.<mode>" for its current app mode; a node
     with no recorded mode change sends in "N" *)
  node_sends : int cell Vs_util.Hashtblx.Int_tbl.t;
  normal_sends : int cell;
  (* "net.drops.<reason>" per drop reason, newest reason first *)
  mutable drop_reasons : (string * int cell) list;
  (* propose / flush-ack anchors, for install latency and flush stall *)
  anchors : Stall.tracker;
  (* open tasks per (proc, task kind) *)
  tasks : (Event.proc * string, float) Hashtbl.t;
}

let deriv_create () =
  {
    metrics = create ();
    last_time = cell "run.last-event-time";
    sends = cell "net.sends";
    recvs = cell "net.recvs";
    drops = cell "net.drops";
    dups = cell "net.dups";
    retransmits = cell "vsync.retransmits";
    peer_retransmits = cell "vsync.retransmits.peer";
    backoffs = cell "vsync.backoffs";
    suspects = cell "fd.suspects";
    unsuspects = cell "fd.unsuspects";
    proposes = cell "gms.proposes";
    flushes = cell "gms.flushes";
    installs = cell "gms.installs";
    eviews = cell "evs.eviews";
    settles = cell "app.settles";
    crashes = cell "faults.crashes";
    partitions = cell "faults.partitions";
    heals = cell "faults.heals";
    corruptions = cell "faults.corruptions";
    node_sends = Vs_util.Hashtblx.Int_tbl.create 8;
    normal_sends = cell "net.sends.mode.N";
    drop_reasons = [];
    anchors = Stall.tracker ();
    tasks = Hashtbl.create 8;
  }

let deriv_metrics d = d.metrics

let rec drop_cell d reason = function
  | (r, c) :: rest -> if String.equal r reason then c else drop_cell d reason rest
  | [] ->
      let c = cell ("net.drops." ^ reason) in
      d.drop_reasons <- (reason, c) :: d.drop_reasons;
      c

let step d ~time (event : Event.t) =
  let m = d.metrics in
  set m d.last_time time;
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
      bump m d.sends;
      bump m
        (match Vs_util.Hashtblx.Int_tbl.find_opt d.node_sends src.node with
        | Some c -> c
        | None -> d.normal_sends)
  | Event.Recv _ -> bump m d.recvs
  | Event.Drop { reason; _ } ->
      bump m d.drops;
      bump m (drop_cell d reason d.drop_reasons)
  | Event.Dup _ -> bump m d.dups
  | Event.Retransmit { count; peer; _ } ->
      bump_by m d.retransmits count;
      if peer then bump_by m d.peer_retransmits count
  | Event.Backoff _ -> bump m d.backoffs
  | Event.Suspect _ -> bump m d.suspects
  | Event.Unsuspect _ -> bump m d.unsuspects
  | Event.Propose _ -> bump m d.proposes
  | Event.Flush _ -> bump m d.flushes
  | Event.Install { sync; _ } ->
      bump m d.installs;
      observe m "view.sync-deliveries" (float_of_int sync)
  | Event.Eview _ -> bump m d.eviews
  | Event.Mode_change { proc; into_mode; cause; _ } ->
      incr m ("mode.transitions." ^ cause);
      Vs_util.Hashtblx.Int_tbl.replace d.node_sends proc.node
        (cell ("net.sends.mode." ^ into_mode))
  | Event.Settle _ -> bump m d.settles
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
  | Event.Crash _ -> bump m d.crashes
  | Event.Partition _ -> bump m d.partitions
  | Event.Heal -> bump m d.heals
  | Event.Corrupt _ -> bump m d.corruptions
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
type summary = Hdr.summary = {
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

let scrape t =
  {
    s_counters = counters t;
    s_gauges = gauges t;
    s_hists = List.map (fun (k, h) -> (k, Hdr.summary h)) (hists t);
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
