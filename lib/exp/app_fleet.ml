module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module Mode = Evs_core.Mode
module Classify = Evs_core.Classify
module History = Evs_core.History
module Fleet = Vs_harness.Fleet
module Sim = Vs_sim.Sim
module Rng = Vs_util.Rng

type 'app t = {
  fleet : 'app Fleet.t;
  nodes : int list;
  me : 'app -> Proc_id.t;
  history : 'app -> History.t;
  rev_all : 'app list ref;  (* every instance ever spawned, newest first *)
}

let create sim net ~nodes ~spawn ~kill ~is_alive ~me ~history =
  let rev_all = ref [] in
  let spawn proc =
    let app = spawn proc in
    rev_all := app :: !rev_all;
    app
  in
  (* Corruptions target Endpoint internals, which the abstract apps do not
     expose, so Corrupt is a no-op here.  The apps multicast through their
     own objects, so the fleet's oracle stays empty. *)
  let fleet =
    Fleet.create sim net ~oracle:(Vs_harness.Oracle.create ()) ~nodes
      { Fleet.spawn; me; is_alive; kill; corrupt = (fun _ _ -> None) }
  in
  { fleet; nodes; me; history; rev_all }

let live t = Fleet.live t.fleet

let on_node t node = Fleet.on_node t.fleet node

let all_ever t = List.rev !(t.rev_all)

let history_of t proc =
  List.find_map
    (fun app ->
      if Proc_id.equal (t.me app) proc then Some (t.history app) else None)
    !(t.rev_all)

let apply_action t action = Fleet.apply_action t.fleet action

let run_script t script = Fleet.run_script t.fleet script

let every t ~start ~until ~gap f =
  let rec arm time =
    if time < until then begin
      ignore (Sim.at (Fleet.sim t.fleet) time (fun () -> f time (live t)));
      arm (time +. gap)
    end
  in
  arm start

(* ---------- open-loop load generation ---------- *)

type load = {
  mutable offered : int;
  mutable accepted : int;
  mutable rejected : int;
}

(* Poisson arrivals at [rate] ops/s from [clients] simulated clients, each
   pinned to a fleet node round-robin.  Open loop: arrival times are drawn
   up front from the exponential inter-arrival process and never wait for
   completions, so a slow data plane shows up as latency, not as a reduced
   offered rate.  Each fired arrival schedules the next, keeping the event
   heap small at high rates.  Returns the live counters; read them after
   running the sim past [until]. *)
let open_loop t ~rng ~start ~until ~rate ~clients ~submit =
  if rate <= 0. then invalid_arg "App_fleet.open_loop: rate must be positive";
  if clients <= 0 then
    invalid_arg "App_fleet.open_loop: need at least one client";
  let load = { offered = 0; accepted = 0; rejected = 0 } in
  let nodes = Array.of_list t.nodes in
  let n_nodes = Array.length nodes in
  if n_nodes = 0 then invalid_arg "App_fleet.open_loop: empty fleet";
  let mean_gap = 1.0 /. rate in
  let rec fire time () =
    let op = load.offered in
    load.offered <- op + 1;
    let client = Rng.int rng clients in
    let node = nodes.(client mod n_nodes) in
    let ok =
      match on_node t node with
      | Some app -> submit app ~client ~op
      | None -> false (* client's node is down: op refused at the door *)
    in
    if ok then load.accepted <- load.accepted + 1
    else load.rejected <- load.rejected + 1;
    schedule time
  and schedule time =
    let next = time +. Rng.exponential rng mean_gap in
    if next < until then ignore (Sim.at (Fleet.sim t.fleet) next (fire next))
  in
  schedule start;
  load

(* The first Mode_event before the View_event of [vid] is the mode the
   process was in at the cut; the last View_event before it, the view it
   came from. *)
let prior_state_of t proc ~vid =
  match history_of t proc with
  | None -> (Classify.Was_fresh, None)
  | Some h ->
      (* Everything before the install of [vid]; the whole history if the
         process died first. *)
      let rec before_install = function
        | { History.event = History.View_event v; _ } :: _
          when View.Id.equal v.View.id vid ->
            []
        | e :: rest -> e :: before_install rest
        | [] -> []
      in
      List.fold_left
        (fun (mode, prior) { History.event; _ } ->
          match event with
          | History.Mode_event { mode = Mode.Normal; _ } ->
              (Classify.Was_normal, prior)
          | History.Mode_event { mode = Mode.Reduced; _ } ->
              (Classify.Was_reduced, prior)
          | History.Mode_event { mode = Mode.Settling; _ } ->
              (Classify.Was_settling, prior)
          | History.View_event v -> (mode, Some v.View.id)
          | History.Deliver _ | History.Eview_event _ -> (mode, prior))
        (Classify.Was_fresh, None)
        (before_install (History.events h))
