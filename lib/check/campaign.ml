module Rng = Vs_util.Rng
module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Faults = Vs_harness.Faults
module Cluster = Vs_harness.Cluster
module Oracle = Vs_harness.Oracle
module Driver = Vs_harness.Driver

type spec = {
  seed : int64;
  protocol : Driver.protocol;
  nodes : int;
  net : Net.config;
  script : Faults.script;
  traffic_gap : float;
  traffic_until : float;
  horizon : float;
  transient : bool;
}

let equal_spec (a : spec) (b : spec) = a = b

let weight spec =
  let flag b = if b then 1 else 0 in
  List.length spec.script + spec.nodes
  + flag (spec.net.Net.drop_prob > 0.)
  + flag (spec.net.Net.dup_prob > 0.)
  + flag (spec.net.Net.delay_max > Net.default_config.Net.delay_max)
  + flag (spec.traffic_gap > 0.)

let describe spec =
  Printf.sprintf
    "seed=%Ld %s nodes=%d actions=%d loss=%.3f dup=%.3f delay=[%.3f,%.3f] \
     traffic-gap=%.3f horizon=%.1f"
    spec.seed
    (Driver.protocol_to_string spec.protocol)
    spec.nodes
    (List.length spec.script)
    spec.net.Net.drop_prob spec.net.Net.dup_prob spec.net.Net.delay_min
    spec.net.Net.delay_max spec.traffic_gap spec.horizon
  ^ if spec.transient then " transient" else ""

(* Derive every campaign parameter from the integer seed.  The derivation
   rng is independent of the cluster seed (offset by a large odd constant)
   so the link parameters never correlate with in-run randomness. *)
let generate ?protocol ?(transient = false) ~seed ~nodes ~quick () =
  let seed64 = Int64.of_int seed in
  let rng = Rng.create (Int64.add (Int64.mul seed64 2654435761L) 97531L) in
  let protocol =
    match protocol with
    | Some p -> p
    | None -> if Rng.bool rng 0.5 then Driver.Evs else Driver.Vsync
  in
  (* Drawn in this order: every seeded campaign depends on it. *)
  let delay_max = Rng.uniform rng 0.005 0.020 in
  let dup_prob = if Rng.bool rng 0.5 then 0. else Rng.uniform rng 0. 0.10 in
  let drop_prob = if Rng.bool rng 0.3 then 0. else Rng.uniform rng 0. 0.15 in
  let net = { Net.default_config with Net.drop_prob; dup_prob; delay_max } in
  let duration = if quick then 3.0 else 6.0 in
  let mean_gap = Rng.uniform rng 0.3 0.8 in
  let node_list = List.init nodes (fun i -> i) in
  (* The transient axis draws its weight only when enabled, so the
     derivation stream — and every existing seed's campaign — is unchanged
     in the default mode. *)
  let corrupt_weight = if transient then Rng.uniform rng 0.8 1.6 else 0.0 in
  let script =
    Faults.random_script rng ~nodes:node_list ~start:1.0 ~duration ~mean_gap
      ~corrupt_weight ()
  in
  let traffic_gap =
    if Rng.bool rng 0.1 then 0. else Rng.uniform rng 0.02 0.08
  in
  {
    seed = seed64;
    protocol;
    nodes;
    net;
    script;
    traffic_gap;
    traffic_until = 1.0 +. duration +. 0.5;
    (* The closing heal/recover lands at [start + duration]; leave a quiet
       settling tail so checks run against a stabilized cluster even under
       loss (retry backoff needs the slack).  Transient scripts end with a
       crash/recover kick at [+0.15/+0.25], well inside the tail. *)
    horizon = 1.0 +. duration +. 5.0;
    transient;
  }

type outcome = {
  violations : string list;
  verdicts : Vs_obs.Explain.violation list;
  deliveries : int;
  installs : int;
  distinct_views : int;
  eview_changes : int;
  events : int;
  stable : bool;
  quarantine : Driver.quarantine option;
}

(* Boot the spec's cluster, schedule its faults and traffic, run to the
   horizon, then judge the run. *)
let run ?obs spec =
  let drive c =
    Cluster.run_script c spec.script;
    if spec.traffic_gap > 0. then
      Cluster.pump_traffic c ~start:0.5 ~until:spec.traffic_until
        ~mean_gap:spec.traffic_gap;
    Cluster.run c ~until:spec.horizon;
    let verdicts, quarantine = Driver.judge ~n:spec.nodes c in
    let oracle = Cluster.oracle c in
    {
      violations = List.map (fun v -> v.Vs_obs.Explain.detail) verdicts;
      verdicts;
      deliveries = Oracle.total_deliveries oracle;
      installs = Oracle.total_installs oracle;
      distinct_views = Oracle.distinct_views oracle;
      eview_changes = Oracle.eview_changes oracle;
      events = Sim.events_processed (Cluster.sim c);
      stable = Cluster.stable_view_reached c;
      quarantine;
    }
  in
  let seed = spec.seed and n = spec.nodes and net_config = spec.net in
  match spec.protocol with
  | Driver.Vsync -> drive (Cluster.vsync ~seed ?obs ~net_config ~n ())
  | Driver.Evs -> drive (Cluster.evs ~seed ?obs ~net_config ~n ())

let fails spec = (run spec).violations <> []
