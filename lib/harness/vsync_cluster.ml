module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module Endpoint = Vs_vsync.Endpoint

type endpoint = (Oracle.msg_id, unit) Endpoint.t

type t = {
  fleet : endpoint Fleet.t;
  net : (Oracle.msg_id, unit) Vs_vsync.Wire.t Net.t;
  rng : Vs_util.Rng.t;
}

let sim t = Fleet.sim t.fleet

let oracle t = Fleet.oracle t.fleet

let net_stats t = Net.stats t.net

(* An endpoint whose callbacks feed the oracle: each install with the
   incarnation's previous view, each delivery with the view it landed in. *)
let spawn sim net oracle ~universe ~config me =
  let prior = ref (View.Id.initial me) in
  let endpoint = ref None in
  let callbacks =
    {
      Endpoint.on_view =
        (fun ev ->
          Oracle.record_install oracle ~proc:me ~view:ev.Endpoint.view
            ~prior:!prior ~time:(Sim.now sim);
          prior := ev.Endpoint.view.View.id);
      on_message =
        (fun ~sender:_ msg_id ->
          match !endpoint with
          | Some ep ->
              Oracle.record_delivery oracle ~proc:me
                ~vid:(Endpoint.view ep).View.id msg_id ~time:(Sim.now sim)
          | None -> ());
    }
  in
  let ep = Endpoint.create sim net ~me ~universe ~config ~callbacks in
  endpoint := Some ep;
  ep

let create ?(seed = 1L) ?obs ?(net_config = Net.default_config)
    ?(config = Endpoint.default_config) ~n () =
  let sim = Sim.create ~seed ?obs () in
  (* Byte accounting matches the EVS cluster's (8-byte payloads and
     annotations), so E9's overhead comparison is apples to apples. *)
  let size_of =
    Vs_vsync.Wire.size_of ~user:(fun (_ : Oracle.msg_id) -> 8) ~ann:(fun () -> 8)
  in
  let user (m : Oracle.msg_id) = Some (Oracle.msg_id_to_obs m) in
  let ident = Vs_vsync.Wire.ident ~user in
  let idents = Vs_vsync.Wire.idents ~user in
  let net =
    Net.create ~size_of ~describe:Vs_vsync.Wire.kind ~ident ~idents sim
      net_config
  in
  let rng = Sim.fork_rng sim in
  let oracle = Oracle.create () in
  let universe = List.init n (fun i -> i) in
  let fleet =
    Fleet.create sim net ~oracle ~nodes:universe
      {
        Fleet.spawn = spawn sim net oracle ~universe ~config;
        me = Endpoint.me;
        is_alive = Endpoint.is_alive;
        kill = Endpoint.kill;
        corrupt = (fun ep c -> Some (Endpoint.corrupt ep c));
      }
  in
  { fleet; net; rng }

let run t ~until = ignore (Sim.run ~until (sim t))

let live_endpoints t = Fleet.live t.fleet

let endpoint_on t node = Fleet.on_node t.fleet node

let multicast_from t ~node ?(order = Endpoint.Fifo) () =
  Fleet.multicast_from t.fleet ~multicast:Endpoint.multicast ~node ~order

let apply_action t action = Fleet.apply_action t.fleet action

let run_script t script = Fleet.run_script t.fleet script

let pump_traffic t ~start ~until ~mean_gap =
  Fleet.pump_traffic t.fleet ~rng:t.rng ~multicast:Endpoint.multicast ~start
    ~until ~mean_gap

(* Endpoint counters summed over the live endpoints — the cluster-level
   view of retry/NACK activity for experiments and tests. *)
let stats_total t =
  let all = List.map Endpoint.stats (live_endpoints t) in
  let sum field = List.fold_left (fun acc s -> acc + field s) 0 all in
  {
    Endpoint.views_installed = sum (fun s -> s.Endpoint.views_installed);
    proposals_started = sum (fun s -> s.Endpoint.proposals_started);
    data_sent = sum (fun s -> s.Endpoint.data_sent);
    delivered = sum (fun s -> s.Endpoint.delivered);
    sync_delivered = sum (fun s -> s.Endpoint.sync_delivered);
    stale_dropped = sum (fun s -> s.Endpoint.stale_dropped);
    to_dropped = sum (fun s -> s.Endpoint.to_dropped);
    nacks_sent = sum (fun s -> s.Endpoint.nacks_sent);
    retransmits = sum (fun s -> s.Endpoint.retransmits);
    peer_retransmits = sum (fun s -> s.Endpoint.peer_retransmits);
    stabilized = sum (fun s -> s.Endpoint.stabilized);
    ctl_retries = sum (fun s -> s.Endpoint.ctl_retries);
    ctl_abandoned = sum (fun s -> s.Endpoint.ctl_abandoned);
    batches_sent = sum (fun s -> s.Endpoint.batches_sent);
  }

let views_installed_per_process t = Oracle.install_counts (oracle t)

let stable_view_reached t =
  Fleet.stable_view_reached t.fleet ~view:Endpoint.view
    ~is_blocked:Endpoint.is_blocked

let rec await_stable_view t ~step ~deadline =
  if stable_view_reached t then Sim.now (sim t)
  else if Sim.now (sim t) >= deadline then infinity
  else begin
    run t ~until:(Sim.now (sim t) +. step);
    await_stable_view t ~step ~deadline
  end
