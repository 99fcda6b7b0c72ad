module Sim = Vs_sim.Sim
module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module Mode = Evs_core.Mode
module Evs = Evs_core.Evs
module E_view = Evs_core.E_view
module Endpoint = Vs_vsync.Endpoint

type strategy = Blocking | Two_piece of { sync_bytes : int; chunk_bytes : int }

type payload =
  | Present of { vid : View.Id.t; full : bool }
  | Full of { vid : View.Id.t; bytes : int }
  | Sync_piece of { vid : View.Id.t; bytes : int }
  | Chunk of { vid : View.Id.t; idx : int; total : int; bytes : int }

type ann = { a_settled : bool }

type net = (payload, ann) Evs.net

(* Byte accounting mirrors the modelled blob sizes, so the network's
   traffic statistics reflect the transfer strategies faithfully. *)
let payload_size = function
  | Present _ -> 16
  | Full { bytes; _ } -> 16 + bytes
  | Sync_piece { bytes; _ } -> 16 + bytes
  | Chunk { bytes; _ } -> 24 + bytes

let make_net sim config =
  Evs.make_net ~payload_size ~ann_size:(fun _ -> 1) sim config

type t = {
  sim : Sim.t;
  strategy : strategy;
  state_bytes : int;
  bootstrap : bool;
  mutable obj : (payload, ann) Group_object.t option;
  mutable has_sync : bool;           (* serving-capable piece present *)
  mutable chunks : (int, unit) Hashtbl.t;
  mutable total_chunks : int;        (* 0 = bulk complete or not chunked *)
  mutable full : bool;
  mutable settle : bool Group_object.round option;
      (* the settle round in progress: whether each member holds the blob *)
  mutable task : string option;       (* open observability task, if any *)
  mutable reconciled_at : float option;
  mutable full_state_at : float option;
  mutable stream_timer : Sim.handle option;
}

let get_obj t = match t.obj with Some o -> o | None -> assert false

let me t = Group_object.me (get_obj t)

let obj t = get_obj t

let holds_full_state t = t.full

let reconciled_at t = t.reconciled_at

let full_state_at t = t.full_state_at

let refresh_annotation t =
  Group_object.set_annotation (get_obj t) (Some { a_settled = t.has_sync })

let mark_full t =
  if not t.full then begin
    t.full <- true;
    t.full_state_at <- Some (Sim.now t.sim)
  end

let current_vid t = (Group_object.eview (get_obj t)).E_view.view.View.id

let stop_stream t =
  match t.stream_timer with
  | Some h ->
      Sim.cancel h;
      t.stream_timer <- None
  | None -> ()

(* Donor side: stream the bulk in chunks, paced through the event queue so
   application traffic interleaves — the "concurrent with application
   activity" half of the two-piece strategy. *)
let stream_bulk t ~vid ~chunk_bytes =
  let total = max 1 ((t.state_bytes + chunk_bytes - 1) / chunk_bytes) in
  let rec send idx =
    t.stream_timer <- None;
    if
      Group_object.is_alive (get_obj t)
      && View.Id.equal (current_vid t) vid && idx < total
    then begin
      let bytes = min chunk_bytes (t.state_bytes - (idx * chunk_bytes)) in
      Group_object.multicast (get_obj t) (Chunk { vid; idx; total; bytes });
      t.stream_timer <- Some (Sim.after t.sim 0.002 (fun () -> send (idx + 1)))
    end
  in
  send 0

let complete t =
  t.settle <- None;
  (match t.task with
  | Some task ->
      t.task <- None;
      Sim.emit t.sim
        (Vs_obs.Event.Task_done
           {
             proc = me t;
             task;
             vid = current_vid t;
           })
  | None -> ());
  Group_object.complete_settling (get_obj t);
  t.reconciled_at <- Some (Sim.now t.sim);
  refresh_annotation t

(* Every member has said whether it holds the blob. *)
let act t ~vid presents =
  let o = get_obj t in
  let donors =
    List.filter_map (fun (p, full) -> if full then Some p else None) presents
  in
  match donors with
  | [] when t.bootstrap ->
      (* State creation: no full copy anywhere — every bootstrap member
         fabricates the initial state from scratch. *)
      t.has_sync <- true;
      mark_full t;
      complete t
  | [] ->
      (* A joiner alone (or among joiners): it cannot tell a fresh boot
         from a total failure and must wait to meet a donor. *)
      ()
  | _ when t.full ->
      (* I am up to date; if I am the designated donor, ship. *)
      let laggards = List.exists (fun (_, full) -> not full) presents in
      let im_donor =
        match Proc_id.min_member donors with
        | Some d -> Proc_id.equal d (me t)
        | None -> false
      in
      if im_donor && laggards then begin
        match t.strategy with
        | Blocking -> Group_object.multicast o (Full { vid; bytes = t.state_bytes })
        | Two_piece { sync_bytes; chunk_bytes } ->
            Group_object.multicast o (Sync_piece { vid; bytes = sync_bytes });
            stream_bulk t ~vid ~chunk_bytes
      end;
      complete t
  | _ -> () (* laggard: wait for the donor's transfer *)

let handle_settle t (problem : Evs_core.Classify.problem) _ev =
  let o = get_obj t in
  stop_stream t;
  let vid = current_vid t in
  t.settle <- Some (Group_object.round o);
  (* One observability task per settling episode, named after the dominant
     Section 4 problem. *)
  let task =
    match problem.Evs_core.Classify.creation with
    | Evs_core.Classify.Rebirth | Evs_core.Classify.In_progress -> "creation"
    | Evs_core.Classify.No_creation ->
        if problem.Evs_core.Classify.merging then "merge" else "transfer"
  in
  t.task <- Some task;
  Sim.emit t.sim (Vs_obs.Event.Task_start { proc = me t; task; vid });
  Group_object.multicast o (Present { vid; full = t.full })

let handle_message t ~sender payload =
  match payload with
  | Present { vid; full } -> (
      match t.settle with
      | Some r -> Option.iter (act t ~vid) (Group_object.report r ~vid ~sender full)
      | None -> ())
  | Full { vid; _ } ->
      if (not t.full) && View.Id.equal (current_vid t) vid then begin
        t.has_sync <- true;
        mark_full t;
        match t.settle with
        | Some r when View.Id.equal (Group_object.round_vid r) vid -> complete t
        | Some _ | None -> refresh_annotation t
      end
  | Sync_piece { vid; _ } ->
      if (not t.has_sync) && View.Id.equal (current_vid t) vid then begin
        t.has_sync <- true;
        match t.settle with
        | Some r when View.Id.equal (Group_object.round_vid r) vid -> complete t
        | Some _ | None -> refresh_annotation t
      end
  | Chunk { vid; idx; total; _ } ->
      if (not t.full) && View.Id.equal (current_vid t) vid then begin
        t.total_chunks <- total;
        Hashtbl.replace t.chunks idx ();
        if Hashtbl.length t.chunks >= total then mark_full t
      end

let create sim net ~me:me_ ~universe ?(bootstrap = true) ~config
    ~strategy ~state_bytes () =
  if state_bytes <= 0 then invalid_arg "State_transfer.create: empty state";
  let t =
    {
      sim;
      strategy;
      state_bytes;
      bootstrap;
      obj = None;
      has_sync = false;
      chunks = Hashtbl.create 64;
      total_chunks = 0;
      full = false;
      settle = None;
      task = None;
      reconciled_at = None;
      full_state_at = None;
      stream_timer = None;
    }
  in
  let spec =
    {
      Group_object.target_of = (fun _ -> Mode.Serve_all);
      reconfigure_policy = Mode.On_expansion;
      settled_ann =
        (fun ann -> match ann with Some a -> a.a_settled | None -> false);
    }
  in
  let callbacks =
    {
      Group_object.on_mode = (fun _ -> ());
      on_settle = (fun problem ev -> handle_settle t problem ev);
      on_message = (fun ~sender payload -> handle_message t ~sender payload);
    }
  in
  t.obj <- Some (Group_object.create sim net ~me:me_ ~universe ~config ~spec ~callbacks);
  refresh_annotation t;
  t

let kill t =
  stop_stream t;
  Group_object.kill (get_obj t)
