module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module E_view = Evs_core.E_view
module Evs = Evs_core.Evs
module Endpoint = Vs_vsync.Endpoint
module Rng = Vs_util.Rng
module Listx = Vs_util.Listx

type eview_record = {
  er_proc : Proc_id.t;
  er_time : float;
  er_eview : E_view.t;
  er_cause : string;
}

type handle = (Oracle.msg_id, unit) Evs.t

type t = {
  fleet : handle Fleet.t;
  net : (Oracle.msg_id, unit) Evs.net;
  rng : Rng.t;
  rev_records : eview_record list ref;
  echanges : int ref;
}

let sim t = Fleet.sim t.fleet

let oracle t = Fleet.oracle t.fleet

let net_stats t = Net.stats t.net

let cause_string = function
  | Evs.View_change -> "view"
  | Evs.Svset_merged id -> "svset-merge " ^ E_view.Svset_id.to_string id
  | Evs.Subview_merged id -> "subview-merge " ^ E_view.Subview_id.to_string id

(* A handle whose callbacks record every e-view event and feed the oracle:
   view changes as installs with the incarnation's previous view,
   deliveries with the view they landed in. *)
let spawn sim net oracle ~universe ~config ~rev_records ~echanges me =
  let prior = ref (View.Id.initial me) in
  let handle = ref None in
  let callbacks =
    {
      Evs.on_eview =
        (fun ev ->
          rev_records :=
            {
              er_proc = me;
              er_time = Sim.now sim;
              er_eview = ev.Evs.eview;
              er_cause = cause_string ev.Evs.cause;
            }
            :: !rev_records;
          match ev.Evs.cause with
          | Evs.View_change ->
              Oracle.record_install oracle ~proc:me
                ~view:ev.Evs.eview.E_view.view ~prior:!prior
                ~time:(Sim.now sim);
              prior := ev.Evs.eview.E_view.view.View.id
          | Evs.Svset_merged _ | Evs.Subview_merged _ -> incr echanges);
      on_message =
        (fun ~sender:_ msg_id ->
          match !handle with
          | Some e ->
              Oracle.record_delivery oracle ~proc:me
                ~vid:(Evs.view e).View.id msg_id ~time:(Sim.now sim)
          | None -> ());
    }
  in
  let e = Evs.create sim net ~me ~universe ~config ~callbacks in
  handle := Some e;
  e

let create ?(seed = 1L) ?obs ?(net_config = Net.default_config)
    ?(config = Endpoint.default_config) ~n () =
  let sim = Sim.create ~seed ?obs () in
  let net : (Oracle.msg_id, unit) Evs.net =
    Evs.make_net
      ~ident:(fun (m : Oracle.msg_id) -> Some (Oracle.msg_id_to_obs m))
      sim net_config
  in
  let rng = Sim.fork_rng sim in
  let oracle = Oracle.create () in
  let rev_records = ref [] and echanges = ref 0 in
  let universe = List.init n (fun i -> i) in
  let fleet =
    Fleet.create sim net ~oracle ~nodes:universe
      {
        Fleet.spawn =
          spawn sim net oracle ~universe ~config ~rev_records ~echanges;
        me = Evs.me;
        is_alive = Evs.is_alive;
        kill = Evs.kill;
        corrupt = (fun e c -> Some (Evs.corrupt e c));
      }
  in
  { fleet; net; rng; rev_records; echanges }

let run t ~until = ignore (Sim.run ~until (sim t))

let live t = Fleet.live t.fleet

let evs_on t node = Fleet.on_node t.fleet node

let multicast_from t ~node ?(order = Endpoint.Fifo) () =
  Fleet.multicast_from t.fleet ~multicast:Evs.multicast ~node ~order

let apply_action t action = Fleet.apply_action t.fleet action

let run_script t script = Fleet.run_script t.fleet script

let pump_traffic t ~start ~until ~mean_gap =
  Fleet.pump_traffic t.fleet ~rng:t.rng ~multicast:Evs.multicast ~start
    ~until ~mean_gap

let stable_view_reached t =
  Fleet.stable_view_reached t.fleet ~view:Evs.view ~is_blocked:Evs.is_blocked

let eview_records t = List.rev !(t.rev_records)

let records_since t since =
  List.filter (fun r -> r.er_time >= since) (eview_records t)

let eview_changes_total t = !(t.echanges)

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
    Oracle.installs_of (oracle t) ~proc
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
