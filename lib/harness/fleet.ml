module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Proc_id = Vs_net.Proc_id

type 'a ops = {
  spawn : Proc_id.t -> 'a;
  me : 'a -> Proc_id.t;
  is_alive : 'a -> bool;
  kill : 'a -> unit;
  corrupt : 'a -> Faults.corruption -> unit;
}

type 'a t = {
  sim : Sim.t;
  ops : 'a ops;
  nodes : int list;
  members : (int, 'a option) Hashtbl.t;  (* each node's latest incarnation *)
  (* The network half of the fault model, closed over the net so the
     fleet's type does not carry the wire format. *)
  incarnate : int -> Proc_id.t;
  partition : int list list -> unit;
  heal : unit -> unit;
}

let sim t = t.sim

let member t node =
  match Hashtbl.find_opt t.members node with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Fleet: unknown node %d" node)

let boot t node =
  Hashtbl.replace t.members node (Some (t.ops.spawn (t.incarnate node)))

let create sim net ~nodes ops =
  let incarnate = Net.fresh_incarnation net in
  let partition = Net.set_partition net and heal () = Net.heal net in
  let t =
    { sim; ops; nodes; members = Hashtbl.create 16; incarnate; partition;
      heal }
  in
  List.iter (boot t) nodes;
  t

let on_node t node =
  match member t node with
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
          Hashtbl.replace t.members node None
      | None -> ())
  | Faults.Recover node -> (
      match on_node t node with Some _ -> () | None -> boot t node)
  | Faults.Corrupt (node, c) -> (
      match on_node t node with Some m -> t.ops.corrupt m c | None -> ())

let run_script t script =
  Faults.schedule t.sim script ~apply:(fun action ->
      Sim.record t.sim ~component:"faults" (Faults.to_string action);
      apply_action t action)
