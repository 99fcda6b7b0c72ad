(* Enriched views at work: watching subviews and sv-sets through a
   partition and merge, and using them to resolve state merging.

   The demo drives a key-value store under the Section 6.2 methodology and
   prints the enriched-view structure at every step: singleton subviews on
   join, application merges after settling, fragments staying apart across
   a partition heal, and the two merge policies (last-writer-wins vs
   primary-subview) resolving the divergence differently.  Run with:

     dune exec examples/partition_merge_demo.exe *)

module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Proc_id = Vs_net.Proc_id
module E_view = Evs_core.E_view
module Evs = Evs_core.Evs
module Go = Vs_apps.Group_object
module Kv = Vs_apps.Kv_store
module Endpoint = Vs_vsync.Endpoint

let show_structure sim kvs heading =
  Printf.printf "\n-- %s (t = %.2fs)\n" heading (Sim.now sim);
  List.iter
    (fun kv ->
      let o = Kv.obj kv in
      if Go.is_alive o then
        Printf.printf "   %s sees %s\n" (Proc_id.to_string (Go.me o))
          (E_view.to_string (Go.eview o)))
    kvs

let show_key kvs key =
  List.iter
    (fun kv ->
      let o = Kv.obj kv in
      if Go.is_alive o then
        Printf.printf "   %s: %s = %s\n"
          (Proc_id.to_string (Go.me o))
          key
          (match Kv.get kv ~key with Some (v, _) -> v | None -> "(absent)"))
    kvs

let scenario ~policy ~policy_name =
  Printf.printf "\n==== merge policy: %s ====\n" policy_name;
  let sim = Sim.create ~seed:77L () in
  let net = Kv.make_net sim Net.default_config in
  let universe = [ 0; 1; 2; 3; 4 ] in
  let kvs =
    List.map
      (fun node ->
        Kv.create sim net ~me:(Proc_id.initial node) ~universe
          ~config:Endpoint.default_config ~policy ())
      universe
  in
  ignore (Sim.run ~until:1.5 sim);
  show_structure sim kvs
    "after boot & settling: the app merged everyone into one subview";

  let first_kv =
    match kvs with
    | kv :: _ -> kv
    | [] -> failwith "partition_merge_demo: empty universe"
  in
  ignore (Kv.put first_kv ~key:"motto" ~value:"one group");
  ignore (Sim.run ~until:2.0 sim);

  print_endline "\n   >>> partition {p0,p1} | {p2,p3,p4}; both sides keep writing";
  Net.set_partition net [ [ 0; 1 ]; [ 2; 3; 4 ] ];
  ignore (Sim.run ~until:3.0 sim);
  ignore (Kv.put (List.nth kvs 0) ~key:"motto" ~value:"minority rules");
  ignore (Kv.put (List.nth kvs 2) ~key:"motto" ~value:"majority rules");
  ignore (Sim.run ~until:3.5 sim);
  show_structure sim kvs "during the partition: one shrunken subview per side";
  print_endline "";
  show_key kvs "motto";

  print_endline
    "\n   >>> heal: the merged view exposes the two fragments as distinct\n\
     \   >>> subviews (clusters) — the state-merging problem, classified\n\
     \   >>> locally and resolved by the policy";
  Net.heal net;
  ignore (Sim.run ~until:4.0 sim);
  ignore
    (Sim.run
       ~until:
         ((* give settling + app merges time to complete *)
          Sim.now sim +. 1.5)
       sim);
  show_structure sim kvs "after merge & reconcile";
  print_endline "";
  show_key kvs "motto"

let () =
  scenario ~policy:Kv.Lww ~policy_name:"last-writer-wins";
  scenario ~policy:Kv.Primary_subview
    ~policy_name:"primary subview (largest cluster wins wholesale)";
  print_endline "\ndone."
