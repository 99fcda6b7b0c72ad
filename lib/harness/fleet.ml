module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module Endpoint = Vs_vsync.Endpoint
module Rng = Vs_util.Rng
module Listx = Vs_util.Listx

type 'a ops = {
  spawn : Proc_id.t -> 'a;
  me : 'a -> Proc_id.t;
  is_alive : 'a -> bool;
  kill : 'a -> unit;
  corrupt : 'a -> Faults.corruption -> string option;
}

type 'a multicast = 'a -> ?order:Endpoint.order -> Oracle.msg_id -> unit

type 'a slot = {
  mutable member : 'a option;  (* the node's latest incarnation *)
  mutable sent : int;          (* oracle message numbering, across incarnations *)
}

type 'a t = {
  sim : Sim.t;
  oracle : Oracle.t;
  ops : 'a ops;
  nodes : int list;
  slots : (int, 'a slot) Hashtbl.t;
  (* The network half of the fault model, closed over the net so the
     fleet's type does not carry the wire format. *)
  incarnate : int -> Proc_id.t;
  partition : int list list -> unit;
  heal : unit -> unit;
}

let sim t = t.sim

let oracle t = t.oracle

let slot t node =
  match Hashtbl.find_opt t.slots node with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Fleet: unknown node %d" node)

let boot t s node = s.member <- Some (t.ops.spawn (t.incarnate node))

let create sim net ~oracle ~nodes ops =
  let incarnate = Net.fresh_incarnation net in
  let partition = Net.set_partition net and heal () = Net.heal net in
  let t =
    { sim; oracle; ops; nodes; slots = Hashtbl.create 16; incarnate;
      partition; heal }
  in
  List.iter
    (fun node ->
      let s = { member = None; sent = 0 } in
      Hashtbl.replace t.slots node s;
      boot t s node)
    nodes;
  t

let on_node t node =
  match (slot t node).member with
  | Some m when t.ops.is_alive m -> Some m
  | Some _ | None -> None

let live t = List.filter_map (on_node t) t.nodes

let apply_action t action =
  match action with
  | Faults.Partition comps -> t.partition comps
  | Faults.Heal -> t.heal ()
  | Faults.Crash node -> (
      match on_node t node with
      | Some m ->
          t.ops.kill m;
          (slot t node).member <- None
      | None -> ())
  | Faults.Recover node -> (
      match on_node t node with
      | Some _ -> ()
      | None -> boot t (slot t node) node)
  | Faults.Corrupt (node, c) -> (
      match on_node t node with
      | Some m -> (
          match t.ops.corrupt m c with
          | Some field ->
              Oracle.record_corruption t.oracle ~proc:(t.ops.me m) ~field
                ~time:(Sim.now t.sim)
          | None -> ())
      | None -> ())

let run_script t script =
  Faults.schedule t.sim script ~apply:(fun action ->
      Sim.record t.sim ~component:"faults" (Faults.to_string action);
      apply_action t action)

let multicast_from t ~(multicast : _ multicast) ~node ~order =
  match on_node t node with
  | Some m ->
      let s = slot t node in
      let msg_id = { Oracle.m_sender = t.ops.me m; m_index = s.sent } in
      s.sent <- s.sent + 1;
      let order_class =
        match order with
        | Endpoint.Total -> `Total
        | Endpoint.Fifo | Endpoint.Causal -> `Fifo
      in
      Oracle.record_send t.oracle ~order:order_class msg_id;
      multicast m ~order msg_id
  | None -> ()

let pump_traffic t ~rng ~multicast ~start ~until ~mean_gap =
  let rec arm time =
    let time = time +. Rng.exponential rng mean_gap in
    if time < until then begin
      ignore
        (Sim.at t.sim time (fun () ->
             let node = Rng.pick rng t.nodes in
             let order =
               if Rng.bool rng 0.2 then Endpoint.Total else Endpoint.Fifo
             in
             multicast_from t ~multicast ~node ~order));
      arm time
    end
  in
  arm start

let stable_view_reached t ~view ~is_blocked =
  match live t with
  | [] -> false
  | first :: _ as members ->
      let v = view first in
      let nodes procs =
        List.sort_uniq Int.compare
          (List.map (fun (p : Proc_id.t) -> p.Proc_id.node) procs)
      in
      List.for_all (fun m -> View.equal (view m) v && not (is_blocked m)) members
      && Listx.equal_set ~cmp:Int.compare (nodes v.View.members)
           (nodes (List.map t.ops.me members))
