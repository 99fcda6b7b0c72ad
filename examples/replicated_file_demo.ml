(* The paper's first example group object (Section 3): a quorum-voted
   replicated file.

   Five replicas, one vote each.  A quorum view is Normal mode (reads and
   writes); a minority view is Reduced mode (stale reads only); and the
   demo ends with a total failure whose recovery solves the state-creation
   problem from the persisted replicas.  Run with:

     dune exec examples/replicated_file_demo.exe *)

module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Proc_id = Vs_net.Proc_id
module Mode = Evs_core.Mode
module Store = Vs_store.Store
module Go = Vs_apps.Group_object
module Rf = Vs_apps.Replicated_file
module Endpoint = Vs_vsync.Endpoint

let show sim files heading =
  Printf.printf "\n-- %s (t = %.2fs)\n" heading (Sim.now sim);
  List.iter
    (fun f ->
      let o = Rf.obj f in
      if Go.is_alive o then
        let state =
          match Rf.read f with
          | Ok (content, version) -> Printf.sprintf "%S v%d" content version
          | Error `Not_serving -> "(settling)"
        in
        Printf.printf "   %s  mode=%s  %s\n"
          (Proc_id.to_string (Go.me o))
          (Mode.to_string (Go.mode o))
          state)
    files

let attempt_write f content =
  let me = Proc_id.to_string (Go.me (Rf.obj f)) in
  match Rf.write f content with
  | Ok () -> Printf.printf "   %s.write %S -> accepted\n" me content
  | Error `Not_serving -> Printf.printf "   %s.write %S -> refused (no quorum)\n" me content

let () =
  let sim = Sim.create ~seed:1996L () in
  let net = Rf.make_net sim Net.default_config in
  let universe = [ 0; 1; 2; 3; 4 ] in
  let store = Store.create () in
  let file = Rf.uniform_votes ~universe in
  let mk node inc =
    Rf.create sim net ~me:(Proc_id.make ~node ~inc) ~universe
      ~config:Endpoint.default_config ~file ~store ()
  in
  let files = List.map (fun node -> mk node 0) universe in
  let first_file =
    match files with
    | f :: _ -> f
    | [] -> failwith "replicated_file_demo: empty universe"
  in
  ignore (Sim.run ~until:1.0 sim);
  show sim files "five replicas assembled: quorum, all Normal";

  print_endline "";
  attempt_write first_file "release-1";
  ignore (Sim.run ~until:1.5 sim);
  show sim files "one-copy semantics: the write reached every replica";

  (* Partition: only the majority side keeps writing; the minority keeps
     serving (stale) reads — the paper's R-mode. *)
  print_endline "\n   >>> partition {p0,p1} | {p2,p3,p4}";
  Net.set_partition net [ [ 0; 1 ]; [ 2; 3; 4 ] ];
  ignore (Sim.run ~until:2.5 sim);
  print_endline "";
  attempt_write first_file "from-minority";
  attempt_write (List.nth files 2) "release-2";
  ignore (Sim.run ~until:3.0 sim);
  show sim files "minority is Reduced (stale reads), majority progressed";

  print_endline "\n   >>> partition heals: state transfer brings the minority up to date";
  Net.heal net;
  ignore (Sim.run ~until:4.5 sim);
  show sim files "everyone converged on release-2";

  (* Total failure: every process crashes; recovery is a state-creation
     problem solved from the persisted replicas. *)
  print_endline "\n   >>> total failure: all five replicas crash";
  List.iter (fun f -> Go.kill (Rf.obj f)) files;
  ignore (Sim.run ~until:5.0 sim);
  print_endline "   >>> all five nodes recover with fresh process identities";
  let recovered = List.map (fun node -> mk node 1) universe in
  ignore (Sim.run ~until:7.0 sim);
  show sim recovered "state recreated from persistent storage";

  print_endline "\ndone."
