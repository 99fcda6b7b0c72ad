(* Experiment T — the sustained-throughput data plane.

   An open-loop Poisson load (App_fleet.open_loop) of totally-ordered puts
   from hundreds of simulated clients drives the replicated KV store, under
   three endpoint configurations on the same seeded workload:

   - "unbatched": the legacy data plane — one reliable To_request round trip
     per operation, one relayed Data message per member per operation, one
     full drain pass per delivery;
   - "batched d1": Wire.To_batch / Wire.Batch coalescing with stop-and-wait
     flush rounds (pipeline_depth = 1) — one wire message per member per
     round, but each round must reach the view's stability floor before the
     next may ship;
   - "pipelined": the same batching with the round pipeline kept full
     (pipeline_depth > 1).

   Reported per arm: offered/accepted load, operations applied at an
   observer replica inside the measured window, wall-clock throughput of
   the simulation over that window (printed only when a clock is injected),
   sampled end-to-end put latency, install / flush-stall percentiles from
   the Obs.Metrics histograms, and wire messages per operation.

   The second half re-runs claim C1 at scale: merging two partitions of
   k = 500 members under batch admission still costs about one view change
   per process — the admission result of E4 survives three orders of
   magnitude more members, given failure-detection and retry periods scaled
   to the O(n^2) heartbeat load. *)

module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Proc_id = Vs_net.Proc_id
module Fd = Vs_fd.Fd
module Endpoint = Vs_vsync.Endpoint
module Kv = Vs_apps.Kv_store
module Rng = Vs_util.Rng
module Summary = Vs_stats.Summary
module Table = Vs_stats.Table
module Hdr = Vs_obs.Hdr
module Recorder = Vs_obs.Recorder
module Metrics = Vs_obs.Metrics
module Series = Vs_obs.Series
module Stall = Vs_obs.Stall
module Critpath = Vs_obs.Critpath
module Obs_event = Vs_obs.Event
module Wire = Vs_vsync.Wire
module View = Vs_gms.View

(* ---------- workload ---------- *)

type workload = {
  w_n : int;          (* replicas *)
  w_clients : int;    (* simulated clients, pinned round-robin to replicas *)
  w_rate : float;     (* offered ops/s *)
  w_keys : int;       (* key-space size *)
  w_zipf : float option;  (* skew exponent; None = uniform *)
  w_warmup : float;   (* sim time for the cluster to assemble and settle *)
  w_window : float;   (* measured load window, sim seconds *)
  w_drain : float;    (* extra sim time to let in-flight ops land *)
}

let default_workload =
  {
    w_n = 6;
    w_clients = 300;
    w_rate = 8_000.;
    w_keys = 128;
    w_zipf = Some 1.1;
    w_warmup = 3.0;
    w_window = 1.0;
    w_drain = 1.0;
  }

let quick_workload =
  {
    default_workload with
    w_n = 4;
    w_clients = 120;
    w_rate = 2_000.;
    w_window = 0.5;
    w_drain = 0.5;
  }

(* Key index sampler.  Zipf uses a precomputed cumulative weight table and
   binary search — O(log keys) per draw, no rejection loop, deterministic
   under the given rng. *)
let make_key_sampler ~rng ~keys ~zipf =
  match zipf with
  | None -> fun () -> Rng.int rng keys
  | Some s ->
      let cdf = Array.make keys 0.0 in
      let total = ref 0.0 in
      for i = 0 to keys - 1 do
        total := !total +. (1.0 /. Float.pow (float_of_int (i + 1)) s);
        cdf.(i) <- !total
      done;
      let total = !total in
      fun () ->
        let u = Rng.uniform rng 0.0 total in
        let lo = ref 0 and hi = ref (keys - 1) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if cdf.(mid) >= u then hi := mid else lo := mid + 1
        done;
        !lo

(* ---------- arms ---------- *)

type arm = { a_name : string; a_config : Endpoint.config }

(* Shared base for all arms: the default protocol config with the failure
   detector relaxed.  At the default 30 ms heartbeat period a stable
   n-replica cluster pays n^2/0.030 heartbeats per second — comparable to
   the offered load itself — which is pure shared overhead that masks the
   data-plane difference under test.  The relaxation is uniform across
   arms, so the comparison stays fair. *)
let base_config =
  {
    Endpoint.default_config with
    Endpoint.fd = { Fd.period = 0.250; timeout = 1.0 };
  }

let arms =
  [
    { a_name = "unbatched"; a_config = base_config };
    {
      a_name = "batched d1";
      a_config = { base_config with Endpoint.batching = true; pipeline_depth = 1 };
    };
    {
      a_name = "pipelined";
      a_config = { base_config with Endpoint.batching = true; pipeline_depth = 8 };
    };
  ]

(* Per-window slice of the measured load window, from the vsmon series
   attached to the arm's simulation: how the throughput and the paper's
   install cost evolve through the window rather than one end-of-run
   number. *)
type window_stat = {
  ws_index : int;  (* series window index: [kΔ, (k+1)Δ) *)
  ws_start : float;
  ws_end : float;
  ws_applied : int;  (* puts applied at the observer in this window *)
  ws_ops_per_s : float;  (* ws_applied / Δ, simulated-time rate *)
  ws_installs : int;  (* view installs in this window *)
  ws_install_p99 : float option;  (* exact p99 install latency, seconds *)
}

type result = {
  r_name : string;
  r_offered : int;
  r_accepted : int;
  r_rejected : int;
  r_applied : int;  (* puts applied at the observer replica in-window *)
  r_ops_per_wall_s : float option;
  r_put_lat : Summary.t;  (* sampled end-to-end put latency, sim seconds *)
  r_install : Hdr.t option;
  r_flush : Hdr.t option;
  r_wire_per_op : float;
  r_windows : window_stat list;  (* measured window sliced by the series *)
  (* vspath critical-path block: install latency decomposed on the causal
     DAG of the same recording (Protocol level, so the propose phase shows
     as local work — the flush/stability split is what the arms differ
     on).  [r_critpath_consistent] is the cross-check the bench gates on:
     segments sum to install latency and the flush/stability components
     agree with the Stall attribution. *)
  r_critpath : (string * float) list;  (* seg-kind name -> summed seconds *)
  r_straggler : (string * float) option;  (* proc, charged seconds *)
  r_critpath_consistent : bool;
}

(* Series windows per measured load window — Δ = w_window / 4, so the
   report shows how the rate and install cost move through the window. *)
let windows_per_measured = 4

(* One arm: same seed, same workload drawing order — only the endpoint
   config differs, so the arrival sequence (times, clients, keys) is
   identical across arms.  [clock], when given, must read wall-clock
   seconds; it is injected by the caller (bench, CLI) so this library stays
   free of wall-clock reads. *)
let run_arm ?clock ~seed ~workload:w arm =
  let recorder = Recorder.create ~level:Recorder.Protocol () in
  let interval = w.w_window /. float_of_int windows_per_measured in
  let series = Series.create ~interval () in
  let (_ : Recorder.sink_handle) =
    Recorder.add_sink recorder (Series.observe series)
  in
  let sim = Sim.create ~seed ~obs:recorder () in
  let net = Kv.make_net sim Net.default_config in
  let universe = List.init w.w_n (fun i -> i) in
  let applied = ref 0 in
  let window_start = ref infinity in
  let window_end = ref infinity in
  let submit_times : (int, float) Hashtbl.t = Hashtbl.create 4096 in
  let put_lat = Summary.create () in
  (* applied-op tally per series window index, measured window only *)
  let applied_wins : (int, int ref) Hashtbl.t = Hashtbl.create 16 in
  let observe_apply ~origin:_ ~key:_ ~value =
    let now = Sim.now sim in
    if now >= !window_start && now < !window_end then begin
      incr applied;
      let idx = int_of_float (floor (now /. interval)) in
      match Hashtbl.find_opt applied_wins idx with
      | Some r -> incr r
      | None -> Hashtbl.replace applied_wins idx (ref 1)
    end;
    match int_of_string_opt value with
    | Some op -> (
        match Hashtbl.find_opt submit_times op with
        | Some t0 ->
            Hashtbl.remove submit_times op;
            Summary.add put_lat (now -. t0)
        | None -> ())
    | None -> ()
  in
  let spawn me =
    if me.Proc_id.node = 0 then
      Kv.create sim net ~me ~universe ~on_apply:observe_apply
        ~config:arm.a_config ~policy:Kv.Lww ()
    else
      Kv.create sim net ~me ~universe ~config:arm.a_config ~policy:Kv.Lww ()
  in
  let fleet =
    App_fleet.create sim net ~nodes:universe ~spawn ~obj:Kv.obj
  in
  (* Warm up: the cluster assembles from singletons and settles into Normal
     mode.  Excluded from the measured window and the wall clock. *)
  ignore (Sim.run ~until:w.w_warmup sim);
  let wire_before = (Net.stats net).Net.sent in
  let rng = Sim.fork_rng sim in
  let key_of = make_key_sampler ~rng ~keys:w.w_keys ~zipf:w.w_zipf in
  let t0 = w.w_warmup in
  window_start := t0;
  window_end := t0 +. w.w_window;
  let sample_every = 8 in
  let submit kv ~client:_ ~op =
    let key = Printf.sprintf "k%d" (key_of ()) in
    let value = string_of_int op in
    if op mod sample_every = 0 then
      Hashtbl.replace submit_times op (Sim.now sim);
    match Kv.put kv ~key ~value with
    | Ok () -> true
    | Error `Not_serving -> false
  in
  let load =
    App_fleet.open_loop fleet ~rng ~start:t0 ~until:(t0 +. w.w_window)
      ~rate:w.w_rate ~clients:w.w_clients ~submit
  in
  let wall0 = Option.map (fun c -> c ()) clock in
  ignore (Sim.run ~until:(t0 +. w.w_window +. w.w_drain) sim);
  let wall_s =
    match (clock, wall0) with
    | Some c, Some t -> Some (c () -. t)
    | _ -> None
  in
  let wire_sent = (Net.stats net).Net.sent - wire_before in
  Series.finish series ~now:(Sim.now sim);
  let entries = Recorder.entries recorder in
  let metrics = Series.metrics series in
  (* Slice the measured window: applied rate from the per-window tally,
     install activity from the series snapshots, and the exact p99 install
     latency from the stall attributions falling in each window. *)
  let cp = Critpath.of_entries entries in
  let attrs = List.map (fun ip -> ip.Critpath.ip_attr) cp.Critpath.installs in
  let windows =
    let in_measured (s : Series.snapshot) =
      s.Series.t_start >= !window_start -. (interval /. 2.)
      && s.Series.t_start < !window_end
    in
    let rec build prev = function
      | [] -> []
      | (s : Series.snapshot) :: rest ->
          let tail = build (Some s) rest in
          if not (in_measured s) then tail
          else begin
            let applied =
              match Hashtbl.find_opt applied_wins s.Series.window with
              | Some r -> !r
              | None -> 0
            in
            let installs =
              Series.delta_counter ~prev s "gms.installs"
            in
            let p99 =
              let lats =
                List.filter_map
                  (fun a ->
                    let t = a.Stall.a_time in
                    if t >= s.Series.t_start && t < s.Series.t_end then
                      Some (Stall.total a)
                    else None)
                  attrs
              in
              if lats = [] then None
              else begin
                let su = Summary.create () in
                List.iter (Summary.add su) lats;
                Some (Summary.percentile su 0.99)
              end
            in
            {
              ws_index = s.Series.window;
              ws_start = s.Series.t_start;
              ws_end = s.Series.t_end;
              ws_applied = applied;
              ws_ops_per_s = float_of_int applied /. interval;
              ws_installs = installs;
              ws_install_p99 = p99;
            }
            :: tail
          end
    in
    build None (Series.snapshots series)
  in
  {
    r_name = arm.a_name;
    r_offered = load.App_fleet.offered;
    r_accepted = load.App_fleet.accepted;
    r_rejected = load.App_fleet.rejected;
    r_applied = !applied;
    r_ops_per_wall_s =
      Option.map
        (fun s ->
          if s > 0. then float_of_int load.App_fleet.accepted /. s else 0.)
        wall_s;
    r_put_lat = put_lat;
    r_install = Metrics.hist metrics "view.install-latency";
    r_flush = Metrics.hist metrics "view.flush-stall";
    r_wire_per_op =
      (if load.App_fleet.accepted > 0 then
         float_of_int wire_sent /. float_of_int load.App_fleet.accepted
       else 0.);
    r_windows = windows;
    r_critpath =
      List.map
        (fun (k, v) -> (Critpath.seg_kind_to_string k, v))
        (Critpath.kind_seconds cp);
    r_straggler =
      Option.map
        (fun (p, c) -> (Obs_event.proc_to_string p, c))
        cp.Critpath.straggler;
    r_critpath_consistent = Critpath.consistent_with_stall cp attrs;
  }

(* Every arm of the KV comparison runs this seed. *)
let kv_seed = 1106L

let run_arms ?clock ?(quick = false) () =
  let workload = if quick then quick_workload else default_workload in
  List.map (run_arm ?clock ~seed:kv_seed ~workload) arms

let opt_ms = function
  | None -> "-"
  | Some s -> Printf.sprintf "%.2f" (s *. 1000.)

let hist_pct h p =
  match h with
  | Some s when Hdr.count s > 0 -> Some (Hdr.percentile s p)
  | Some _ | None -> None

let sum_pct s p = if Summary.count s > 0 then Some (Summary.percentile s p) else None

(* ---------- the data plane alone ---------- *)

(* The kv arms above measure the whole application stack: Evs dispatch, the
   per-delivery history record, the store's persistent map.  Both arms pay
   that cost identically, so it floors the wall-clock ratio between them
   regardless of how cheap the messaging layer gets.  The 10× sustained-
   throughput claim is about the {e data plane} — endpoint + wire + net —
   so [run_data_plane] drives bare endpoints (delivery callback is a
   counter) with the same kind of seeded open-loop Poisson arrival process,
   totally ordered, and measures the wall-clock rate at which the simulation
   sustains it.  Every arrival is identical across arms (same seed, same
   draw order), and each operation must still reach every replica in total
   order before it counts. *)

type dp_workload = {
  d_n : int;          (* replicas *)
  d_rate : float;     (* offered ops/s *)
  d_warmup : float;   (* cluster assembly, excluded from measurement *)
  d_window : float;   (* arrival window, sim seconds *)
  d_drain : float;    (* extra sim time for in-flight rounds to land *)
  d_batch_max : int;  (* batch cap for the batched arm *)
  d_depth : int;      (* pipeline depth for the batched arm *)
}

let default_dp_workload =
  {
    d_n = 16;
    d_rate = 100_000.;
    d_warmup = 5.0;
    d_window = 1.0;
    d_drain = 1.0;
    d_batch_max = 512;
    d_depth = 8;
  }

let quick_dp_workload = { default_dp_workload with d_window = 0.4 }

type dp_result = {
  p_name : string;
  p_offered : int;
  p_delivered : int;   (* total-order deliveries summed over all replicas *)
  p_ops_per_wall_s : float option;
  p_wire_per_op : float;
  p_batches : int;
}

let run_data_plane_arm ?clock ~seed ~workload:w name config =
  let sim = Sim.create ~seed () in
  let size_of = Wire.size_of ~user:(fun (_ : int) -> 8) ~ann:(fun () -> 8) in
  let net = Net.create ~size_of sim Net.default_config in
  let universe = List.init w.d_n (fun i -> i) in
  let delivered = ref 0 in
  let eps =
    Array.of_list
      (List.map
         (fun node ->
           let me = Net.fresh_incarnation net node in
           let callbacks =
             {
               Endpoint.on_view = (fun _ -> ());
               on_message = (fun ~sender:_ (_ : int) -> incr delivered);
             }
           in
           Endpoint.create sim net ~me ~universe ~config ~callbacks)
         universe)
  in
  ignore (Sim.run ~until:w.d_warmup sim);
  if List.length (Endpoint.view eps.(0)).View.members <> w.d_n then
    invalid_arg
      "Exp_throughput.run_data_plane_arm: cluster did not assemble in the \
       warmup window";
  let wire_before = (Net.stats net).Net.sent in
  let rng = Sim.fork_rng sim in
  let offered = ref 0 in
  let t0 = w.d_warmup in
  let rec fire time () =
    let node = Rng.int rng w.d_n in
    Endpoint.multicast eps.(node) ~order:Endpoint.Total !offered;
    incr offered;
    schedule time
  and schedule time =
    let next = time +. Rng.exponential rng (1.0 /. w.d_rate) in
    if next < t0 +. w.d_window then ignore (Sim.at sim next (fire next))
  in
  schedule t0;
  delivered := 0;
  let wall0 = Option.map (fun c -> c ()) clock in
  ignore (Sim.run ~until:(t0 +. w.d_window +. w.d_drain) sim);
  let wall_s =
    match (clock, wall0) with Some c, Some t -> Some (c () -. t) | _ -> None
  in
  let wire_sent = (Net.stats net).Net.sent - wire_before in
  let batches =
    Array.fold_left
      (fun acc ep -> acc + (Endpoint.stats ep).Endpoint.batches_sent)
      0 eps
  in
  {
    p_name = name;
    p_offered = !offered;
    p_delivered = !delivered;
    p_ops_per_wall_s =
      Option.map
        (fun s -> if s > 0. then float_of_int !offered /. s else 0.)
        wall_s;
    p_wire_per_op =
      (if !offered > 0 then float_of_int wire_sent /. float_of_int !offered
       else 0.);
    p_batches = batches;
  }

(* Both data-plane arms draw the same arrivals from this seed. *)
let dp_seed = 2207L

let run_data_plane ?clock ?(quick = false) () =
  let w = if quick then quick_dp_workload else default_dp_workload in
  let batched =
    {
      base_config with
      Endpoint.batching = true;
      pipeline_depth = w.d_depth;
      batch_max = w.d_batch_max;
    }
  in
  [
    run_data_plane_arm ?clock ~seed:dp_seed ~workload:w "unbatched" base_config;
    run_data_plane_arm ?clock ~seed:dp_seed ~workload:w "batched+pipelined"
      batched;
  ]

(* The headline ratio: wall-clock sustained ops/sec, batched + pipelined
   over unbatched, on the identical seeded arrival sequence. *)
let dp_speedup results =
  let ops name =
    List.find_map
      (fun r -> if String.equal r.p_name name then r.p_ops_per_wall_s else None)
      results
  in
  match (ops "unbatched", ops "batched+pipelined") with
  | Some base, Some piped when base > 0. -> Some (piped /. base)
  | _ -> None

(* The "ops/s (wall)" column: rows carry a wall-clock rate exactly when
   their runs were given a clock, and only then is there a column. *)
let wall_column rates =
  if List.exists Option.is_some rates then [ "ops/s (wall)" ] else []

let wall_cell = function Some v -> [ Printf.sprintf "%.0f" v ] | None -> []

let data_plane_table results =
  let columns =
    [ "arm"; "offered"; "delivered (all replicas)" ]
    @ wall_column (List.map (fun r -> r.p_ops_per_wall_s) results)
    @ [ "wire msgs/op"; "batch rounds" ]
  in
  let table =
    Table.create
      ~title:
        "T/data-plane — bare endpoints under the same open-loop total-order \
         load: sustained ops/sec, batched+pipelined vs unbatched"
      ~columns
  in
  List.iter
    (fun r ->
      let row =
        [ r.p_name; Table.fint r.p_offered; Table.fint r.p_delivered ]
        @ wall_cell r.p_ops_per_wall_s
        @ [ Table.ffloat ~decimals:2 r.p_wire_per_op; Table.fint r.p_batches ]
      in
      Table.add_row table row)
    results;
  table

let throughput_table results =
  let columns =
    [ "arm"; "offered"; "accepted"; "applied" ]
    @ wall_column (List.map (fun r -> r.r_ops_per_wall_s) results)
    @ [
        "put p50 (ms)";
        "put p99 (ms)";
        "install p50 (ms)";
        "install p99 (ms)";
        "flush p99 (ms)";
        "wire msgs/op";
      ]
  in
  let table =
    Table.create
      ~title:
        "T — open-loop totally-ordered puts: batching and flush pipelining \
         on the same seeded workload"
      ~columns
  in
  List.iter
    (fun r ->
      let row =
        [
          r.r_name;
          Table.fint r.r_offered;
          Table.fint r.r_accepted;
          Table.fint r.r_applied;
        ]
        @ wall_cell r.r_ops_per_wall_s
        @ [
            opt_ms (sum_pct r.r_put_lat 0.5);
            opt_ms (sum_pct r.r_put_lat 0.99);
            opt_ms (hist_pct r.r_install 0.5);
            opt_ms (hist_pct r.r_install 0.99);
            opt_ms (hist_pct r.r_flush 0.99);
            Table.ffloat ~decimals:2 r.r_wire_per_op;
          ]
      in
      Table.add_row table row)
    results;
  table

(* Per-window evolution of the measured load window: the vsmon view of the
   same run — how the applied rate and the install cost move through the
   window instead of one end-of-run aggregate. *)
let window_table results =
  let table =
    Table.create
      ~title:
        "T/windows — measured load window sliced by the vsmon series: \
         applied ops/s and install p99 per window"
      ~columns:
        [
          "arm";
          "window";
          "span (s)";
          "applied";
          "ops/s (sim)";
          "installs";
          "install p99 (ms)";
        ]
  in
  List.iter
    (fun r ->
      List.iter
        (fun ws ->
          Table.add_row table
            [
              r.r_name;
              Table.fint ws.ws_index;
              Printf.sprintf "%g-%g" ws.ws_start ws.ws_end;
              Table.fint ws.ws_applied;
              Printf.sprintf "%.0f" ws.ws_ops_per_s;
              Table.fint ws.ws_installs;
              opt_ms ws.ws_install_p99;
            ])
        r.r_windows)
    results;
  table

(* Per-arm critical-path block: where the install latency of each arm
   actually went, on the causal DAG of the same recording.  The
   flush-ack-wait column is the one batching/pipelining moves; the
   "consistent" column is the Stall cross-check the bench refuses on. *)
let critpath_table results =
  let table =
    Table.create
      ~title:
        "T/critpath — per-arm install critical path: summed seconds by \
         segment kind, straggler, Stall consistency"
      ~columns:
        ([ "arm" ]
        @ List.map Critpath.seg_kind_to_string Critpath.all_seg_kinds
        @ [ "straggler"; "consistent" ])
  in
  List.iter
    (fun r ->
      Table.add_row table
        ([ r.r_name ]
        @ List.map
            (fun k ->
              let name = Critpath.seg_kind_to_string k in
              match List.assoc_opt name r.r_critpath with
              | Some v -> Table.ffloat ~decimals:4 v
              | None -> "-")
            Critpath.all_seg_kinds
        @ [
            (match r.r_straggler with
            | Some (p, c) -> Printf.sprintf "%s (%.4fs)" p c
            | None -> "-");
            (if r.r_critpath_consistent then "yes" else "NO");
          ]))
    results;
  table

(* ---------- claim C1 at scale ---------- *)

(* E4 merges partitions of up to 16 members under the default (LAN-interactive)
   timers.  At k = 500 those timers are physically impossible: every process
   heartbeats every other, so the failure-detector load is O(n^2) per period
   and a 30 ms period at n = 1000 means 33M messages per simulated second.
   The scaled profile stretches detection, settling, flush and retry periods
   to what a real deployment of that size would run, disables per-message
   stability gossip (the merge exchanges no application data; the gossip is
   O(n^2) pure overhead here), and ships any data there is batched. *)
let scale_config =
  {
    Endpoint.default_config with
    Endpoint.fd = { Fd.period = 1.5; timeout = 5.0 };
    stability = 1.0;
    nag_period = 1.5;
    flush_timeout = 6.0;
    nack_delay = 0.5;
    stability_interval = None;
    retry_backoff = 0.75;
    retry_backoff_max = 6.0;
    batching = true;
  }

(* Both halves assemble behind the partition: a couple of heartbeat periods
   to hear everyone, a settle period, one flush. *)
let merge_at_scale ~k =
  let n = float_of_int (2 * k) in
  Exp_join.merge
    ~seed:(Int64.of_int (7000 + k))
    ~config:scale_config ~k
    ~assembled:(15.0 +. (0.002 *. n))
    ~settle:(30.0 +. (0.005 *. n))
    ~step:0.5

let merge_table samples =
  let table =
    Table.create
      ~title:
        "T/C1-at-scale — merging two k-member partitions under batch \
         admission (scaled timers)"
      ~columns:
        [ "k"; "installs after heal"; "installs/proc"; "merge latency (s)" ]
  in
  List.iter
    (fun (m : Exp_join.sample) ->
      Table.add_row table
        [
          Table.fint m.k;
          Table.fint m.installs_total;
          Table.ffloat m.installs_per_proc;
          Table.ffloat ~decimals:2 m.merge_latency;
        ])
    samples;
  table

(* [tables] renders without wall-clock numbers (no clock is injected here:
   the experiment registry must stay deterministic for the lint and the
   repro corpus); bench throughput calls {!run_arms} and {!run_data_plane}
   with a clock and prints the wall-clock columns. *)
let tables ?(quick = false) () =
  let results = run_arms ~quick () in
  let dp = run_data_plane ~quick () in
  let merge = [ merge_at_scale ~k:(if quick then 25 else 50) ] in
  [
    throughput_table results;
    critpath_table results;
    window_table results;
    data_plane_table dp;
    merge_table merge;
  ]
