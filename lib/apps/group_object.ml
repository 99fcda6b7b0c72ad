module Sim = Vs_sim.Sim
module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module Evs = Evs_core.Evs
module E_view = Evs_core.E_view
module Mode = Evs_core.Mode
module Classify = Evs_core.Classify
module History = Evs_core.History
module Endpoint = Vs_vsync.Endpoint
module Listx = Vs_util.Listx

type 'ann spec = {
  target_of : Proc_id.t list -> Mode.target;
  reconfigure_policy : Mode.reconfigure_policy;
  settled_ann : 'ann option -> bool;
}

type ('a, 'ann) callbacks = {
  on_mode : Mode.Machine.step -> unit;
  on_settle : Classify.problem -> 'ann Evs.eview_event -> unit;
  on_message : sender:Proc_id.t -> 'a -> unit;
}

type ('a, 'ann) t = {
  sim : Sim.t;
  spec : 'ann spec;
  callbacks : ('a, 'ann) callbacks;
  machine : Mode.Machine.t;
  history : History.t;
  mutable settles : (Classify.problem * E_view.t) list;  (* newest first *)
  mutable evs : ('a, 'ann) Evs.t option;
  mutable prior_members : Proc_id.t list;
  mutable delivery_count : int;
}

let get_evs t = match t.evs with Some e -> e | None -> assert false

let me t = Evs.me (get_evs t)

let evs t = get_evs t

let eview t = Evs.eview (get_evs t)

let mode t = Mode.Machine.mode t.machine

let machine t = t.machine

let history t = t.history

let settles t = List.rev t.settles

let multicast t ?order payload = Evs.multicast (get_evs t) ?order payload

let set_annotation t ann = Evs.set_annotation (get_evs t) ann

let would_serve_all t members =
  Mode.equal_target (t.spec.target_of members) Mode.Serve_all

let classify_of_event t (ev : 'ann Evs.eview_event) =
  let settled p =
    match List.assoc_opt p ev.Evs.annotations with
    | Some ann -> t.spec.settled_ann ann
    | None -> false
  in
  Classify.enriched ~eview:ev.Evs.eview
    ~would_serve_all:(would_serve_all t)
    ~settled ()

let record_mode_step t (step : Mode.Machine.step) =
  match step.Mode.Machine.cause with
  | Some cause ->
      History.record t.history ~time:(Sim.now t.sim)
        (History.Mode_event
           { mode = step.Mode.Machine.into_mode; cause = step.Mode.Machine.cause });
      Sim.emit t.sim
        (Vs_obs.Event.Mode_change
           {
             proc = me t;
             from_mode = Mode.to_string step.Mode.Machine.from_mode;
             into_mode = Mode.to_string step.Mode.Machine.into_mode;
             cause = Mode.transition_to_string cause;
           });
      t.callbacks.on_mode step
  | None -> ()

(* Merge the caller's sv-set's subviews if it is the one responsible (its
   smallest member) and there is anything to merge — issued from both
   complete_settling and the late-sv-set-merge catch-up, so the Section 6.2
   merges happen regardless of message interleaving. *)
let merge_own_subviews t =
  match t.evs with
  | None -> ()
  | Some e ->
      let ev = Evs.eview e in
      let ss = Evs.my_svset e in
      let group = E_view.svset_members ss ev in
      let im_smallest =
        match Proc_id.min_member group with
        | Some p -> Proc_id.equal p (Evs.me e)
        | None -> false
      in
      if im_smallest && List.length ss.E_view.ss_subviews >= 2 then
        Evs.subview_merge e ss.E_view.ss_subviews

(* The view coordinator merges the view's sv-sets, marking the processes
   engaged in the joint reconstruction. *)
let begin_joint_settling t =
  let ev = eview t in
  let svset_ids = E_view.svset_ids ev in
  match Proc_id.min_member (E_view.members ev) with
  | Some c when Proc_id.equal c (me t) && List.length svset_ids >= 2 ->
      Evs.svset_merge (get_evs t) svset_ids
  | Some _ | None -> ()

let handle_eview t (ev : 'ann Evs.eview_event) =
  match ev.Evs.cause with
  | Evs.View_change ->
      let new_members = E_view.members ev.Evs.eview in
      History.record t.history ~time:(Sim.now t.sim)
        (History.View_event ev.Evs.eview.E_view.view);
      let expanded =
        Listx.diff ~cmp:Proc_id.compare new_members t.prior_members <> []
      in
      t.prior_members <- new_members;
      let target = t.spec.target_of new_members in
      let step =
        Mode.Machine.on_view_change t.machine ~target ~expanded
          ~policy:t.spec.reconfigure_policy
      in
      record_mode_step t step;
      if Mode.equal (Mode.Machine.mode t.machine) Mode.Settling then begin
        let problem = classify_of_event t ev in
        let creation =
          match problem.Classify.creation with
          | Classify.No_creation -> "none"
          | Classify.Rebirth -> "rebirth"
          | Classify.In_progress -> "in-progress"
        in
        Sim.emit t.sim
          (Vs_obs.Event.Settle
             {
               proc = me t;
               vid = ev.Evs.eview.E_view.view.View.id;
               transfer = problem.Classify.transfer;
               creation;
               merging = problem.Classify.merging;
               clusters = problem.Classify.clusters;
             });
        t.settles <- (problem, ev.Evs.eview) :: t.settles;
        begin_joint_settling t;
        t.callbacks.on_settle problem ev
      end
  | Evs.Svset_merged _ | Evs.Subview_merged _ ->
      History.record t.history ~time:(Sim.now t.sim)
        (History.Eview_event
           {
             vid = ev.Evs.eview.E_view.view.View.id;
             eseq = ev.Evs.eview.E_view.eseq;
           });
      (* If the sv-set merge lands after this process already reconciled,
         complete_settling has come and gone: merge the subviews now. *)
      (match ev.Evs.cause with
      | Evs.Svset_merged _
        when Mode.equal (Mode.Machine.mode t.machine) Mode.Normal ->
          merge_own_subviews t
      | Evs.Svset_merged _ | Evs.Subview_merged _ | Evs.View_change -> ())

let handle_message t ~sender payload =
  t.delivery_count <- t.delivery_count + 1;
  History.record t.history ~time:(Sim.now t.sim)
    (History.Deliver
       {
         sender;
         seq = t.delivery_count;
         vid = (eview t).E_view.view.View.id;
       });
  t.callbacks.on_message ~sender payload

let create sim net ~me:me_ ~universe ~config ~spec ~callbacks =
  let t =
    {
      sim;
      spec;
      callbacks;
      machine = Mode.Machine.create ();
      history = History.create me_;
      settles = [];
      evs = None;
      prior_members = [];
      delivery_count = 0;
    }
  in
  let evs_callbacks =
    {
      Evs.on_eview = (fun ev -> handle_eview t ev);
      on_message = (fun ~sender payload -> handle_message t ~sender payload);
    }
  in
  let e = Evs.create sim net ~me:me_ ~universe ~config ~callbacks:evs_callbacks in
  t.evs <- Some e;
  t

let complete_settling t =
  match Mode.Machine.reconcile t.machine with
  | Ok step ->
      record_mode_step t step;
      merge_own_subviews t
  | Error `Not_settling -> ()

let is_alive t = Evs.is_alive (get_evs t)

let leave t = Evs.leave (get_evs t)

let kill t = Evs.kill (get_evs t)

(* ---------- settle rounds ---------- *)

type 'r round = {
  r_vid : View.Id.t;
  r_eview : unit -> E_view.t;  (* the object's current e-view *)
  mutable r_reports : (Proc_id.t * 'r) list;  (* one per sender *)
}

let round t =
  { r_vid = (eview t).E_view.view.View.id; r_eview = (fun () -> eview t); r_reports = [] }

let round_vid r = r.r_vid

let reports r =
  let ev = r.r_eview () in
  let of_member m = List.find_opt (fun (p, _) -> Proc_id.equal p m) r.r_reports in
  let got = List.map of_member (E_view.members ev) in
  if View.Id.equal r.r_vid ev.E_view.view.View.id && List.for_all Option.is_some got
  then Some (List.filter_map Fun.id got)
  else None

let report r ~vid ~sender x =
  if not (View.Id.equal vid r.r_vid) then None
  else begin
    let others = List.filter (fun (p, _) -> not (Proc_id.equal p sender)) r.r_reports in
    r.r_reports <- (sender, x) :: others;
    reports r
  end
