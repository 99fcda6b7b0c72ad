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

type eview_record = {
  er_proc : Proc_id.t;
  er_time : float;
  er_eview : E_view.t;
  er_cause : string;
}

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

(* Every e-view event any member saw, newest first, and how many of them
   were within-view changes.  Only EVS members feed it. *)
type eviews = { mutable rev_records : eview_record list; mutable changes : int }

type 'a t = {
  fleet : 'a Fleet.t;
  member : 'a member;
  oracle : Oracle.t;
  net_stats : unit -> Net.stats;
  rng : Rng.t;
  nodes : int list;
  sent : int array;  (* oracle message numbering, across incarnations *)
  eviews : eviews;
}

let sim t = Fleet.sim t.fleet

let oracle t = t.oracle

let net_stats t = t.net_stats ()

(* Boot a member as [me] with callbacks that feed the cluster, through
   [create ~on_install ~on_eview ~on_message]: each install is recorded
   with the incarnation's previous view, each delivery with the view it
   landed in, and each e-view event before a view change reaches the
   oracle. *)
let observed sim oracle eviews me ~view create =
  let prior = ref (View.Id.initial me) in
  let member = ref None in
  let on_install (v : View.t) =
    Oracle.record_install oracle ~proc:me ~view:v ~prior:!prior
      ~time:(Sim.now sim);
    prior := v.View.id
  in
  let on_eview (ev : unit Evs.eview_event) =
    eviews.rev_records <-
      {
        er_proc = me;
        er_time = Sim.now sim;
        er_eview = ev.Evs.eview;
        er_cause = Evs.cause_label ev.Evs.cause;
      }
      :: eviews.rev_records;
    match ev.Evs.cause with
    | Evs.View_change -> on_install ev.Evs.eview.E_view.view
    | Evs.Svset_merged _ | Evs.Subview_merged _ ->
        eviews.changes <- eviews.changes + 1
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
  let eviews = { rev_records = []; changes = 0 } in
  let universe = List.init n (fun i -> i) in
  let spawn me =
    observed sim oracle eviews me ~view:member.view
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
    eviews;
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
  let all = List.map t.member.endpoint_stats (live t) in
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

(* ---------- Section 6 ---------- *)

let eview_records t = List.rev t.eviews.rev_records

let records_since t since =
  List.filter (fun r -> r.er_time >= since) (eview_records t)

let eview_changes_total t = t.eviews.changes

(* Property 6.1: within one view, every process records the same sequence
   of e-view changes — match records by (view id, eseq) and require equal
   structures and causes. *)
let check_total_order ?(since = neg_infinity) t =
  let key r = (r.er_eview.E_view.view.View.id, r.er_eview.E_view.eseq) in
  let groups =
    Listx.group_by ~key
      ~cmp_key:(fun (v1, s1) (v2, s2) ->
        match View.Id.compare v1 v2 with 0 -> Int.compare s1 s2 | c -> c)
      (records_since t since)
  in
  List.concat_map
    (fun ((vid, eseq), group) ->
      match group with
      | [] | [ _ ] -> []
      | first :: rest ->
          let fingerprint r = E_view.to_string r.er_eview in
          let reference = fingerprint first in
          List.concat_map
            (fun r ->
              let disagree what a b =
                Printf.sprintf
                  "total-order: %s and %s disagree on %s (%s, %d): %s vs %s"
                  (Proc_id.to_string first.er_proc)
                  (Proc_id.to_string r.er_proc)
                  what (View.Id.to_string vid) eseq a b
              in
              (if String.equal r.er_cause first.er_cause then []
               else
                 [ disagree "the cause of e-view" first.er_cause r.er_cause ])
              @
              if String.equal (fingerprint r) reference then []
              else [ disagree "e-view" reference (fingerprint r) ])
            rest)
    groups

let same_subview ev p q =
  match (E_view.subview_of p ev, E_view.subview_of q ev) with
  | Some a, Some b -> E_view.Subview_id.equal a.E_view.sv_id b.E_view.sv_id
  | _ -> false

let same_svset ev p q =
  let svset_id_of x =
    match E_view.subview_of x ev with
    | Some sv -> Option.map (fun ss -> ss.E_view.ss_id) (E_view.svset_of_subview sv.E_view.sv_id ev)
    | None -> None
  in
  match (svset_id_of p, svset_id_of q) with
  | Some a, Some b -> E_view.Svset_id.equal a b
  | _ -> false

(* Property 6.3 at each process: compare its last e-view of the old view
   with the first e-view of the new one.  Both directions apply to pairs
   that travelled with the observer (both installed the new view straight
   from the observer's old view): such pairs keep their subview/sv-set
   relation and are never silently joined by the view change.  Pairs with a
   member that detoured through views the observer did not share are
   exempt in both directions — their subview may legitimately have shrunk
   away from a laggard, or been grown by an application merge the observer
   could not see. *)
let check_structure ?(since = neg_infinity) t =
  (* did [proc] install [new_vid] straight from [old_vid]? (the oracle) *)
  let came_from proc ~new_vid ~old_vid =
    Oracle.installs_of t.oracle ~proc
    |> List.find_map (fun (v, prior) ->
           if View.Id.equal v.View.id new_vid then Some prior else None)
    |> Option.fold ~none:false ~some:(View.Id.equal old_vid)
  in
  (* [proc]'s last e-view of the old view against its first of the new one,
     in pair order. *)
  let transition proc old_ev new_ev =
    let old_vid = old_ev.E_view.view.View.id in
    let new_vid = new_ev.E_view.view.View.id in
    let old_s = View.Id.to_string old_vid and new_s = View.Id.to_string new_vid in
    let survivors =
      Listx.inter ~cmp:Proc_id.compare (E_view.members old_ev)
        (E_view.members new_ev)
    in
    let pair p q =
      let report cond what =
        if cond then
          [ Printf.sprintf "structure@%s: %s,%s %s" (Proc_id.to_string proc)
              (Proc_id.to_string p) (Proc_id.to_string q) what ]
        else []
      in
      let before = same_subview old_ev p q and after = same_subview new_ev p q in
      report (before && not after)
        (Printf.sprintf "shared a subview in %s but not in %s" old_s new_s)
      @ report ((not before) && after)
          (Printf.sprintf
             "were joined into one subview by a view change (%s -> %s)" old_s
             new_s)
      @ report
          (same_svset old_ev p q && not (same_svset new_ev p q))
          (Printf.sprintf "shared an sv-set in %s but not in %s" old_s new_s)
    in
    List.concat_map
      (fun p ->
        List.concat_map
          (fun q ->
            if
              Proc_id.compare p q < 0
              && came_from p ~new_vid ~old_vid
              && came_from q ~new_vid ~old_vid
            then pair p q
            else [])
          survivors)
      survivors
  in
  Listx.group_by ~key:(fun r -> r.er_proc) ~cmp_key:Proc_id.compare
    (records_since t since)
  |> List.concat_map (fun (proc, records) ->
         (* records are in order: [prev] is the last of its view *)
         let rec walk = function
           | prev :: (next :: _ as rest)
             when not
                    (View.Id.equal prev.er_eview.E_view.view.View.id
                       next.er_eview.E_view.view.View.id) ->
               transition proc prev.er_eview next.er_eview @ walk rest
           | _ :: rest -> walk rest
           | [] -> []
         in
         (* newest first, as the checker has always reported them *)
         List.rev (walk records))
