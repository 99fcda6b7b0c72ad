(* Quickstart: a replicated counter on enriched view synchrony.

   Three processes join a group, increment a shared counter, survive a
   partition with divergence, and converge after the merge.  Run with:

     dune exec examples/quickstart.exe *)

module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Proc_id = Vs_net.Proc_id
module Mode = Evs_core.Mode
module Go = Vs_apps.Group_object
module Counter = Vs_apps.Counter
module Endpoint = Vs_vsync.Endpoint

let show sim counters heading =
  Printf.printf "\n-- %s (t = %.2fs)\n" heading (Sim.now sim);
  List.iter
    (fun c ->
      let o = Counter.obj c in
      if Go.is_alive o then
        Printf.printf "   %s  mode=%s  value=%d\n"
          (Proc_id.to_string (Go.me o))
          (Mode.to_string (Go.mode o))
          (Counter.value c))
    counters

let () =
  (* Everything runs on a deterministic discrete-event simulator: create
     the engine, a network with (configurable) delays, and one counter
     replica per node. *)
  let sim = Sim.create ~seed:2026L () in
  let net = Counter.make_net sim Net.default_config in
  let universe = [ 0; 1; 2 ] in
  let counters =
    List.map
      (fun node ->
        Counter.create sim net ~me:(Proc_id.initial node) ~universe
          ~config:Endpoint.default_config ())
      universe
  in
  (* Processes boot in singleton views, find each other through the
     failure detector, agree on a common view and settle. *)
  ignore (Sim.run ~until:1.0 sim);
  show sim counters "after boot: one view, everyone Normal";

  (* External operations are served in Normal mode. *)
  let c0 = List.nth counters 0 and c1 = List.nth counters 1 in
  (match Counter.increment c0 ~by:40 with
  | Ok () -> print_endline "\n   p0.increment 40 -> accepted"
  | Error `Not_serving -> print_endline "\n   p0.increment 40 -> REFUSED");
  ignore (Sim.run ~until:1.5 sim);
  show sim counters "after increment: totally-ordered update applied everywhere";

  (* A partition splits the group; both sides keep serving (the counter is
     a partitionable object) and diverge. *)
  print_endline "\n   >>> network partitions into {p0} | {p1,p2}";
  Net.set_partition net [ [ 0 ]; [ 1; 2 ] ];
  ignore (Sim.run ~until:2.5 sim);
  ignore (Counter.increment c0 ~by:1);
  ignore (Counter.increment c1 ~by:2);
  ignore (Sim.run ~until:3.0 sim);
  show sim counters "divergence: 41 on one side, 42 on the other";

  (* The merge is a view change; the members classify the shared-state
     problem (state merging), exchange reports and adopt the maximum. *)
  print_endline "\n   >>> partition heals";
  Net.heal net;
  ignore (Sim.run ~until:4.5 sim);
  show sim counters "after merge: high-water mark wins, everyone Normal again";

  print_endline "\ndone."
