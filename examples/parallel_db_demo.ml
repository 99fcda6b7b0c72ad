(* The paper's second example group object (Section 3): a fully replicated
   database whose look-up queries are evaluated in parallel, each member
   scanning only its assigned key range.

   The responsibility table is shared global state: every view change
   forces Settling (Reduced mode does not exist for this object) and the
   coordinator redistributes the key space before queries resume.  The demo
   crashes a member mid-stream and shows the ranges being rebalanced and a
   query still returning exactly the matching keys.  Run with:

     dune exec examples/parallel_db_demo.exe *)

module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Proc_id = Vs_net.Proc_id
module Mode = Evs_core.Mode
module Go = Vs_apps.Group_object
module Pdb = Vs_apps.Parallel_db
module Endpoint = Vs_vsync.Endpoint

let keyspace = 120

let show_ranges sim dbs heading =
  Printf.printf "\n-- %s (t = %.2fs)\n" heading (Sim.now sim);
  List.iter
    (fun db ->
      let o = Pdb.obj db in
      if Go.is_alive o then
        let range =
          match Pdb.my_range db with
          | Some (lo, hi) -> Printf.sprintf "[%3d, %3d)" lo hi
          | None -> "(no table)"
        in
        Printf.printf "   %s  mode=%s  range=%s\n"
          (Proc_id.to_string (Go.me o))
          (Mode.to_string (Go.mode o))
          range)
    dbs

let lookup_and_report sim db ~needle =
  match Pdb.lookup db ~needle with
  | Error `Not_serving ->
      Printf.printf "   lookup(%d) refused: issuer is settling\n" needle
  | Ok qid -> (
      ignore (Sim.run ~until:(Sim.now sim +. 0.5) sim);
      match Pdb.result_of db qid with
      | Ok hits ->
          Printf.printf "   lookup(value = %d) -> keys [%s]\n" needle
            (String.concat "; " (List.map string_of_int hits))
      | Error `Pending ->
          Printf.printf "   lookup(%d) still pending (incomplete coverage)\n"
            needle)

let () =
  let sim = Sim.create ~seed:42L () in
  let net = Pdb.make_net sim Net.default_config in
  let universe = [ 0; 1; 2; 3 ] in
  let dbs =
    List.map
      (fun node ->
        Pdb.create sim net ~me:(Proc_id.initial node) ~universe
          ~config:Endpoint.default_config ~keyspace ())
      universe
  in
  let first_db =
    match dbs with
    | db :: _ -> db
    | [] -> failwith "parallel_db_demo: empty universe"
  in
  ignore (Sim.run ~until:1.0 sim);
  show_ranges sim dbs "four members, key space split four ways";

  print_endline "";
  lookup_and_report sim first_db ~needle:48;

  print_endline "\n   >>> p3 crashes: the table is invalidated, everyone settles,";
  print_endline "   >>> the coordinator redistributes the key space";
  Go.kill (Pdb.obj (List.nth dbs 3));
  ignore (Sim.run ~until:3.0 sim);
  show_ranges sim dbs "three survivors cover the whole key space again";

  print_endline "";
  lookup_and_report sim first_db ~needle:48;
  print_endline
    "\n   (same answer as before the crash: no key searched twice or missed)";

  print_endline "\ndone."
