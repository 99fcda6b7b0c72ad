(* Experiment E5 — Sections 4 / 6.2: can the shared-state problem be
   classified from local information?

   Application fleets (the mergeable KV store and the quorum replicated
   file) run under random fault campaigns.  Every time a process enters
   Settling, three classifiers are scored against the omniscient oracle:

   - "enriched": the Section 6.2 reasoning over the subview/sv-set
     structure, as the runtime itself computes it;
   - "flat": the Section 4 local reasoning over the member list and the
     process's own past — generally a set of possible verdicts;
   - the oracle reconstructs every member's prior mode and view from the
     recorded histories (the harness is omniscient; processes are not).

   Reported: how often each local classifier is exact, how often the flat
   one is ambiguous, and whether it is at least sound (the truth among its
   candidates). *)

module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module E_view = Evs_core.E_view
module Classify = Evs_core.Classify
module History = Evs_core.History
module Endpoint = Vs_vsync.Endpoint
module Store = Vs_store.Store
module Go = Vs_apps.Group_object
module Kv = Vs_apps.Kv_store
module Rf = Vs_apps.Replicated_file
module Faults = Vs_harness.Faults
module Table = Vs_stats.Table

type observation = {
  o_proc : Proc_id.t;
  o_eview : E_view.t;
  o_enriched : Classify.problem;
}

type scores = {
  mutable settles : int;
  mutable enriched_exact : int;
  mutable flat_exact : int;
  mutable flat_ambiguous : int;
  mutable flat_sound : int;
}

let new_scores () =
  { settles = 0; enriched_exact = 0; flat_exact = 0; flat_ambiguous = 0; flat_sound = 0 }

(* The observer's own previous view (composition) before installing [vid]:
   the last View_event preceding it in its history. *)
let previous_view_members history ~vid ~me =
  let rec walk prev = function
    | { History.event = History.View_event v; _ } :: rest ->
        if View.Id.equal v.View.id vid then
          match prev with Some (pv : View.t) -> pv.View.members | None -> [ me ]
        else walk (Some v) rest
    | _ :: rest -> walk prev rest
    | [] -> ( match prev with Some pv -> pv.View.members | None -> [ me ])
  in
  walk None (History.events history)

let score_observations ?(classifier = Classify.flat) fleet observations scores =
  List.iter
    (fun o ->
      let vid = o.o_eview.E_view.view.View.id in
      let members = E_view.members o.o_eview in
      let truth =
        Classify.exact ~members ~prior:(fun q ->
            App_fleet.prior_state_of fleet q ~vid)
      in
      let truth_shape = Classify.shape truth in
      scores.settles <- scores.settles + 1;
      if Classify.shape o.o_enriched = truth_shape then
        scores.enriched_exact <- scores.enriched_exact + 1;
      (* Flat reasoning, restricted to what a flat view would reveal. *)
      let my_prior, _ = App_fleet.prior_state_of fleet o.o_proc ~vid in
      let my_prior_members =
        match App_fleet.history_of fleet o.o_proc with
        | Some h -> previous_view_members h ~vid ~me:o.o_proc
        | None -> [ o.o_proc ]
      in
      let verdicts =
        classifier
          {
            Classify.fk_members = members;
            fk_me = o.o_proc;
            fk_my_prior = my_prior;
            fk_my_prior_members = my_prior_members;
          }
      in
      let shapes = List.map Classify.shape verdicts in
      if List.length shapes > 1 then
        scores.flat_ambiguous <- scores.flat_ambiguous + 1
      else if shapes = [ truth_shape ] then
        scores.flat_exact <- scores.flat_exact + 1;
      if List.mem truth_shape shapes then
        scores.flat_sound <- scores.flat_sound + 1)
    observations

(* One E5 campaign: five group objects under random churn and a steady
   trickle of operations, recording every entry into Settling.  [spawn]
   builds one object on the campaign's simulator and network; [op] issues
   one operation on a randomly picked live object. *)
let campaign ~seed ~duration ~make_net ~spawn ~kill ~is_alive ~me ~obj ~gap
    ~op =
  let sim = Sim.create ~seed () in
  let net = make_net sim Net.default_config in
  let universe = [ 0; 1; 2; 3; 4 ] in
  let observations = ref [] in
  let observer me = function
    | Go.Obs_settle { problem; eview } ->
        observations :=
          { o_proc = me; o_eview = eview; o_enriched = problem } :: !observations
    | Go.Obs_mode _ -> ()
  in
  let fleet =
    App_fleet.create sim net ~nodes:universe
      ~spawn:(fun me -> spawn sim net ~me ~universe ~observer:(observer me))
      ~kill ~is_alive ~me
      ~history:(fun app -> Go.history (obj app))
  in
  let rng = Sim.fork_rng sim in
  App_fleet.run_script fleet
    (Faults.random_script rng ~nodes:universe ~start:1.0 ~duration ~mean_gap:0.5 ());
  App_fleet.every fleet ~start:0.6 ~until:duration ~gap (fun time -> function
    | [] -> ()
    | apps -> op rng time (Vs_util.Rng.pick rng apps));
  ignore (Sim.run ~until:(duration +. 3.0) sim);
  (fleet, List.rev !observations)

let kv_campaign ?(config = Endpoint.default_config) ~seed ~duration () =
  campaign ~seed ~duration ~make_net:Kv.make_net
    ~spawn:(fun sim net ~me ~universe ~observer ->
      Kv.create sim net ~me ~universe ~observer ~config ~policy:Kv.Lww ())
    ~kill:Kv.kill ~is_alive:Kv.is_alive ~me:Kv.me ~obj:Kv.obj ~gap:0.07
    ~op:(fun rng time kv ->
      ignore
        (Kv.put kv
           ~key:(Printf.sprintf "k%d" (Vs_util.Rng.int rng 8))
           ~value:(Printf.sprintf "v%f" time)))

let file_campaign ?(config = Endpoint.default_config) ~seed ~duration () =
  let store = Store.create () in
  campaign ~seed ~duration ~make_net:Rf.make_net
    ~spawn:(fun sim net ~me ~universe ~observer ->
      Rf.create sim net ~me ~universe ~observer ~config
        ~file:(Rf.uniform_votes ~universe) ~store ())
    ~kill:Rf.kill ~is_alive:Rf.is_alive ~me:Rf.me ~obj:Rf.obj ~gap:0.08
    ~op:(fun _ _ f -> ignore (Rf.write f "x"))

let run ?(quick = false) () =
  let seeds = if quick then [ 9 ] else [ 9; 10; 11; 12 ] in
  let duration = if quick then 4.0 else 10.0 in
  let table =
    Table.create
      ~title:
        "E5 / Sections 4 & 6.2 — local classification of the shared-state \
         problem vs the omniscient oracle"
      ~columns:
        [
          "object";
          "settles";
          "enriched exact";
          "flat exact";
          "flat ambiguous";
          "flat sound";
        ]
  in
  let run_app name campaign =
    let scores = new_scores () in
    List.iter
      (fun seed ->
        let fleet, observations =
          campaign ~seed:(Int64.of_int (seed * 101)) ~duration
        in
        score_observations fleet observations scores)
      seeds;
    let pct n = if scores.settles = 0 then "-" else Table.fpct (float_of_int n /. float_of_int scores.settles) in
    Table.add_row table
      [
        name;
        Table.fint scores.settles;
        pct scores.enriched_exact;
        pct scores.flat_exact;
        pct scores.flat_ambiguous;
        pct scores.flat_sound;
      ];
    scores
  in
  let kv_scores =
    run_app "kv store (partitionable)" (fun ~seed ~duration ->
        kv_campaign ~seed ~duration ())
  in
  let file_scores =
    run_app "replicated file (quorum)" (fun ~seed ~duration ->
        file_campaign ~seed ~duration ())
  in
  (table, (kv_scores, file_scores))

(* E5b: under the Isis regime — one-at-a-time admission AND
   primary-partition semantics (the quorum file: no progress outside the
   quorum, so state merging cannot arise) — flat reasoning with the growth
   restriction classifies exactly, the Section 5 observation about what the
   restriction buys at the E4 cost. *)
let run_isis ?(quick = false) () =
  let seeds = if quick then [ 21 ] else [ 21; 22; 23 ] in
  let duration = if quick then 4.0 else 10.0 in
  let config =
    { Endpoint.default_config with Endpoint.one_at_a_time = true }
  in
  let table =
    Table.create
      ~title:
        "E5b / Section 5 — classification under the Isis regime (one-at-a-time admission, primary-partition quorum object)"
      ~columns:[ "classifier"; "settles"; "exact"; "ambiguous"; "sound" ]
  in
  let score classifier =
    let scores = new_scores () in
    List.iter
      (fun seed ->
        let fleet, observations =
          file_campaign ~config ~seed:(Int64.of_int (seed * 211)) ~duration ()
        in
        score_observations ~classifier fleet observations scores)
      seeds;
    scores
  in
  let flat = score Classify.flat in
  let isis = score Classify.flat_one_at_a_time in
  let row name (s : scores) =
    let pct n =
      if s.settles = 0 then "-"
      else Table.fpct (float_of_int n /. float_of_int s.settles)
    in
    Table.add_row table
      [ name; Table.fint s.settles; pct s.flat_exact; pct s.flat_ambiguous; pct s.flat_sound ]
  in
  row "flat (Section 4)" flat;
  row "flat + one-at-a-time (Isis)" isis;
  table

let tables ?quick () = [ fst (run ?quick ()); run_isis ?quick () ]
