(* Experiment E1 — Figure 1: the empirical mode-transition matrix.

   A quorum-voted replicated-file fleet runs under a randomized fault
   campaign; every process's mode machine records the Figure-1 edges it
   takes.  The experiment reports the aggregated transition matrix and
   asserts that no illegal move ever occurred — the executable version of
   Figure 1. *)

module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Mode = Evs_core.Mode
module Endpoint = Vs_vsync.Endpoint
module Store = Vs_store.Store
module Rf = Vs_apps.Replicated_file
module Go = Vs_apps.Group_object
module Faults = Vs_harness.Faults
module Table = Vs_stats.Table

let run_campaign ~seed ~n ~duration =
  let sim = Sim.create ~seed () in
  let net = Rf.make_net sim Net.default_config in
  let universe = List.init n (fun i -> i) in
  let store = Store.create () in
  let file = Rf.uniform_votes ~universe in
  let fleet =
    App_fleet.create sim net ~nodes:universe
      ~spawn:(fun me ->
        Rf.create sim net ~me ~universe
          ~config:Endpoint.default_config ~file ~store ())
      ~obj:Rf.obj
  in
  let rng = Sim.fork_rng sim in
  App_fleet.run_script fleet
    (Faults.random_script rng ~nodes:universe ~start:1.0 ~duration
       ~mean_gap:0.4 ());
  (* Background writes keep the object exercised. *)
  App_fleet.every fleet ~start:0.5 ~until:(duration +. 1.0) ~gap:0.05
    (fun time -> function
      | [] -> ()
      | apps ->
          let f = Vs_util.Rng.pick rng apps in
          ignore (Rf.write f (Printf.sprintf "w%f" time)));
  ignore (Sim.run ~until:(duration +. 3.0) sim);
  let machines =
    List.map (fun f -> Go.machine (Rf.obj f)) (App_fleet.all_ever fleet)
  in
  let steps = List.concat_map Mode.Machine.history machines in
  let illegal =
    List.length
      (List.filter
         (fun (s : Mode.Machine.step) ->
           not
             (Mode.is_legal ~from:s.Mode.Machine.from_mode
                ~into:s.Mode.Machine.into_mode))
         steps)
  in
  (List.concat_map Mode.Machine.transition_counts machines, List.length steps, illegal)

let run ?(quick = false) () =
  let seeds = if quick then [ 1 ] else [ 1; 2; 3; 4; 5 ] in
  let duration = if quick then 4.0 else 12.0 in
  (* transition counts per machine and edge, machine steps, illegal steps *)
  let counts, steps, illegal =
    List.fold_left
      (fun (counts, steps, illegal) seed ->
        let c, s, i =
          run_campaign ~seed:(Int64.of_int (seed * 31)) ~n:5 ~duration
        in
        (c @ counts, steps + s, illegal + i))
      ([], 0, 0) seeds
  in
  let edge_of = function
    | Mode.Failure -> "Normal/Settling -> Reduced"
    | Mode.Repair -> "Reduced -> Settling"
    | Mode.Reconfigure -> "Normal/Settling -> Settling"
    | Mode.Reconcile -> "Settling -> Normal"
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "E1 / Figure 1 — mode transitions over %d fault campaigns (%d \
            machine steps, %d illegal)"
           (List.length seeds) steps illegal)
      ~columns:[ "transition"; "edge"; "count" ]
  in
  List.iter
    (fun tr ->
      let n =
        List.fold_left
          (fun n (tr', k) -> if Mode.equal_transition tr tr' then n + k else n)
          0 counts
      in
      Table.add_row table
        [ Mode.transition_to_string tr; edge_of tr; Table.fint n ])
    [ Mode.Failure; Mode.Repair; Mode.Reconfigure; Mode.Reconcile ];
  table

let tables ?quick () = [ run ?quick () ]
