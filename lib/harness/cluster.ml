module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module E_view = Evs_core.E_view
module Evs = Evs_core.Evs
module Endpoint = Vs_vsync.Endpoint
module Rng = Vs_util.Rng
module Listx = Vs_util.Listx

type endpoint = (Oracle.msg_id, unit) Endpoint.t

type handle = (Oracle.msg_id, unit) Evs.t

(* A member's operations, as Endpoint's or Evs's. *)
type 'a member = {
  me : 'a -> Proc_id.t;
  is_alive : 'a -> bool;
  kill : 'a -> unit;
  corrupt : 'a -> Faults.corruption -> string;
  view : 'a -> View.t;
  is_blocked : 'a -> bool;
  multicast : 'a -> ?order:Endpoint.order -> Oracle.msg_id -> unit;
  endpoint_stats : 'a -> Endpoint.stats;
}

type 'a t = {
  fleet : 'a Fleet.t;
  member : 'a member;
  oracle : Oracle.t;
  net_stats : unit -> Net.stats;
  rng : Rng.t;
  nodes : int list;
  sent : int array;  (* oracle message numbering, across incarnations *)
}

let sim t = Fleet.sim t.fleet

let oracle t = t.oracle

let net_stats t = t.net_stats ()

(* Boot a member as [me] with callbacks that feed the oracle, through
   [create ~on_install ~on_eview ~on_message]: each install is recorded
   with the incarnation's previous view, each delivery with the view it
   landed in, and each e-view event ahead of the install it may carry. *)
let observed sim oracle me ~view create =
  let prior = ref (View.Id.initial me) in
  let member = ref None in
  let on_install (v : View.t) =
    Oracle.record_install oracle ~proc:me ~view:v ~prior:!prior
      ~time:(Sim.now sim);
    prior := v.View.id
  in
  let on_eview (ev : unit Evs.eview_event) =
    Oracle.record_eview oracle ~proc:me ~eview:ev.Evs.eview
      ~cause:(Evs.cause_label ev.Evs.cause) ~time:(Sim.now sim);
    match ev.Evs.cause with
    | Evs.View_change -> on_install ev.Evs.eview.E_view.view
    | Evs.Svset_merged _ | Evs.Subview_merged _ -> ()
  in
  let on_message ~sender:_ msg_id =
    match !member with
    | Some m ->
        Oracle.record_delivery oracle ~proc:me ~vid:(view m).View.id msg_id
          ~time:(Sim.now sim)
    | None -> ()
  in
  let m = create ~on_install ~on_eview ~on_message in
  member := Some m;
  m

(* Creation order is part of every seeded run: sim, net, the traffic rng,
   the oracle, then the members. *)
let make ?(seed = 1L) ?obs ?(net_config = Net.default_config)
    ?(config = Endpoint.default_config) ~n ~make_net member boot =
  let sim = Sim.create ~seed ?obs () in
  let net = make_net sim net_config in
  let rng = Sim.fork_rng sim in
  let oracle = Oracle.create () in
  let universe = List.init n (fun i -> i) in
  let spawn me =
    observed sim oracle me ~view:member.view
      (boot sim net ~me ~universe ~config)
  in
  let corrupt m c =
    let field = member.corrupt m c in
    Oracle.record_corruption oracle ~proc:(member.me m) ~field
      ~time:(Sim.now sim)
  in
  let fleet =
    Fleet.create sim net ~nodes:universe
      {
        Fleet.spawn;
        me = member.me;
        is_alive = member.is_alive;
        kill = member.kill;
        corrupt;
      }
  in
  {
    fleet;
    member;
    oracle;
    net_stats = (fun () -> Net.stats net);
    rng;
    nodes = universe;
    sent = Array.make n 0;
  }

let vsync ?seed ?obs ?net_config ?config ~n () =
  (* Byte accounting matches the EVS cluster's (8-byte payloads and
     annotations), so E9's overhead comparison is apples to apples. *)
  let make_net sim net_config =
    Net.create
      ~size_of:
        (Vs_vsync.Wire.size_of
           ~user:(fun (_ : Oracle.msg_id) -> 8)
           ~ann:(fun () -> 8))
      ~describe:Vs_vsync.Wire.kind
      ~idents:(Vs_vsync.Wire.idents ~user:Option.some)
      sim net_config
  in
  make ?seed ?obs ?net_config ?config ~n ~make_net
    {
      me = Endpoint.me;
      is_alive = Endpoint.is_alive;
      kill = Endpoint.kill;
      corrupt = Endpoint.corrupt;
      view = Endpoint.view;
      is_blocked = Endpoint.is_blocked;
      multicast = Endpoint.multicast;
      endpoint_stats = Endpoint.stats;
    }
    (fun sim net ~me ~universe ~config ~on_install ~on_eview:_ ~on_message ->
      Endpoint.create sim net ~me ~universe ~config
        ~callbacks:
          {
            Endpoint.on_view = (fun ev -> on_install ev.Endpoint.view);
            on_message;
          })

let evs ?seed ?obs ?net_config ?config ~n () =
  make ?seed ?obs ?net_config ?config ~n
    ~make_net:(Evs.make_net ~ident:Option.some)
    {
      me = Evs.me;
      is_alive = Evs.is_alive;
      kill = Evs.kill;
      corrupt = Evs.corrupt;
      view = Evs.view;
      is_blocked = Evs.is_blocked;
      multicast = Evs.multicast;
      endpoint_stats = Evs.endpoint_stats;
    }
    (fun sim net ~me ~universe ~config ~on_install:_ ~on_eview ~on_message ->
      Evs.create sim net ~me ~universe ~config
        ~callbacks:{ Evs.on_eview; on_message })

let run t ~until = ignore (Sim.run ~until (sim t))

let live t = Fleet.live t.fleet

let on_node t node = Fleet.on_node t.fleet node

let multicast_from t ~node ?(order = Endpoint.Fifo) () =
  match on_node t node with
  | Some m ->
      let msg_id = { Oracle.origin = t.member.me m; mseq = t.sent.(node) } in
      t.sent.(node) <- t.sent.(node) + 1;
      let order_class =
        match order with
        | Endpoint.Total -> `Total
        | Endpoint.Fifo | Endpoint.Causal -> `Fifo
      in
      Oracle.record_send t.oracle ~order:order_class msg_id;
      t.member.multicast m ~order msg_id
  | None -> ()

let apply_action t action = Fleet.apply_action t.fleet action

let run_script t script = Fleet.run_script t.fleet script

let pump_traffic t ~start ~until ~mean_gap =
  let rec arm time =
    let time = time +. Rng.exponential t.rng mean_gap in
    if time < until then begin
      ignore
        (Sim.at (sim t) time (fun () ->
             let node = Rng.pick t.rng t.nodes in
             let order =
               if Rng.bool t.rng 0.2 then Endpoint.Total else Endpoint.Fifo
             in
             multicast_from t ~node ~order ()));
      arm time
    end
  in
  arm start

(* Endpoint counters summed over the live members — the cluster-level view
   of retry/NACK activity for experiments and tests. *)
let stats_total t =
  Endpoint.sum_stats (List.map t.member.endpoint_stats (live t))

let stable_view_reached t =
  match live t with
  | [] -> false
  | first :: _ as members ->
      let v = t.member.view first in
      let nodes procs =
        List.sort_uniq Int.compare
          (List.map (fun (p : Proc_id.t) -> p.Proc_id.node) procs)
      in
      List.for_all
        (fun m -> View.equal (t.member.view m) v && not (t.member.is_blocked m))
        members
      && Listx.equal_set ~cmp:Int.compare (nodes v.View.members)
           (nodes (List.map t.member.me members))

let rec await_stable_view t ~step ~deadline =
  if stable_view_reached t then Sim.now (sim t)
  else if Sim.now (sim t) >= deadline then infinity
  else begin
    run t ~until:(Sim.now (sim t) +. step);
    await_stable_view t ~step ~deadline
  end
