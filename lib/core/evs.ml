module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module Endpoint = Vs_vsync.Endpoint
module Wire = Vs_vsync.Wire
module Net = Vs_net.Net
module Sim = Vs_sim.Sim

type ctl =
  | Svset_merge_req of E_view.Svset_id.t list
  | Subview_merge_req of E_view.Subview_id.t list

type 'a wire =
  | App of 'a
  | Scoped of { sv : E_view.Subview_id.t; payload : 'a }
  | Ctl of ctl

type 'ann evs_ann = {
  ea_snapshot : E_view.t;
      (* the reporter's whole enriched view at flush time: the rebuild
         takes, per prior-view group, the freshest snapshot, which subsumes
         the tags of members that acked before a late in-flight merge *)
  ea_app : 'ann option;
}

type ('a, 'ann) net = (('a wire, 'ann evs_ann) Wire.t) Net.t

let make_net ?(payload_size = fun _ -> 8) ?(ann_size = fun _ -> 8)
    ?(ident = fun _ -> None) sim config =
  let id_size = 8 in
  let wire_size = function
    | App a -> payload_size a
    | Scoped { payload; _ } -> id_size + payload_size payload
    | Ctl (Svset_merge_req ids) -> id_size * (1 + List.length ids)
    | Ctl (Subview_merge_req ids) -> id_size * (1 + List.length ids)
  in
  let evs_ann_size a =
    (2 * id_size)
    + (12 * List.length (E_view.members a.ea_snapshot))
    + match a.ea_app with Some x -> ann_size x | None -> 0
  in
  let wire_ident = function
    | App a | Scoped { payload = a; _ } -> ident a
    | Ctl _ -> None
  in
  Net.create
    ~size_of:(Wire.size_of ~user:wire_size ~ann:evs_ann_size)
    ~describe:Wire.kind
    ~idents:(Wire.idents ~user:wire_ident)
    sim config

type cause =
  | View_change
  | Svset_merged of E_view.Svset_id.t
  | Subview_merged of E_view.Subview_id.t

type 'ann eview_event = {
  eview : E_view.t;
  cause : cause;
  annotations : (Proc_id.t * 'ann option) list;
  priors : (Proc_id.t * View.Id.t) list;
}

type ('a, 'ann) callbacks = {
  on_eview : 'ann eview_event -> unit;
  on_message : sender:Proc_id.t -> 'a -> unit;
}

type ('a, 'ann) t = {
  sim : Sim.t;
  callbacks : ('a, 'ann) callbacks;
  mutable ep : ('a wire, 'ann evs_ann) Endpoint.t option;
  mutable eview : E_view.t;
  mutable app_ann : 'ann option;
}

let get_ep t =
  match t.ep with Some ep -> ep | None -> assert false

let me t = Endpoint.me (get_ep t)

let eview t = t.eview

let view t = t.eview.E_view.view

let my_subview t =
  match E_view.subview_of (me t) t.eview with
  | Some sv -> sv
  | None -> assert false (* every member belongs to exactly one subview *)

let my_svset t =
  match E_view.svset_of_subview (my_subview t).E_view.sv_id t.eview with
  | Some ss -> ss
  | None -> assert false

(* Keep the vsync-level annotation in sync with our structural state so
   that whenever a flush happens we report the current snapshot. *)
let refresh_annotation t =
  Endpoint.set_annotation (get_ep t)
    (Some { ea_snapshot = t.eview; ea_app = t.app_ann })

let log_eview t ~cause =
  Sim.emit t.sim
    (Vs_obs.Event.Eview
       {
         proc = me t;
         vid = t.eview.E_view.view.View.id;
         eseq = t.eview.E_view.eseq;
         cause;
         subviews = List.length t.eview.E_view.structure.E_view.subviews;
         svsets = List.length t.eview.E_view.structure.E_view.svsets;
       })

let cause_label = function
  | View_change -> "view"
  | Svset_merged id -> "svset-merge " ^ E_view.Svset_id.to_string id
  | Subview_merged id -> "subview-merge " ^ E_view.Subview_id.to_string id

let handle_view t (ev : 'ann evs_ann Endpoint.view_event) =
  let raw =
    List.map
      (fun (p, ann) ->
        ( p,
          {
            E_view.sr_snapshot = Option.map (fun a -> a.ea_snapshot) ann;
            sr_prior = List.assoc_opt p ev.Endpoint.priors;
          } ))
      ev.Endpoint.annotations
  in
  t.eview <- E_view.rebuild_from_snapshots ev.Endpoint.view raw;
  refresh_annotation t;
  log_eview t ~cause:(cause_label View_change);
  let annotations =
    List.map
      (fun (p, ann) ->
        (p, Option.bind ann (fun a -> a.ea_app)))
      ev.Endpoint.annotations
  in
  t.callbacks.on_eview
    { eview = t.eview; cause = View_change; annotations; priors = ev.Endpoint.priors }

let handle_ctl t ctl =
  let result =
    match ctl with
    | Svset_merge_req ids ->
        Result.map
          (fun (ev, id) -> (ev, Svset_merged id))
          (E_view.apply_svset_merge t.eview ids)
    | Subview_merge_req ids ->
        Result.map
          (fun (ev, id) -> (ev, Subview_merged id))
          (E_view.apply_subview_merge t.eview ids)
  in
  match result with
  | Ok (eview, cause) ->
      t.eview <- eview;
      refresh_annotation t;
      log_eview t ~cause:(cause_label cause);
      t.callbacks.on_eview { eview; cause; annotations = []; priors = [] }
  | Error `No_effect -> ()

let create sim net ~me:me_ ~universe ~config ~callbacks =
  let t =
    {
      sim;
      callbacks;
      ep = None;
      eview = E_view.initial me_;
      app_ann = None;
    }
  in
  let ep_callbacks =
    {
      Endpoint.on_view = (fun ev -> handle_view t ev);
      on_message =
        (fun ~sender wire ->
          match wire with
          | App a -> t.callbacks.on_message ~sender a
          | Scoped { sv; payload } ->
              (* Delivered group-wide, consumed only within the named
                 subview — "external operations are performed within a
                 subview and not across different subviews" (Sec. 6.2). *)
              let mine =
                match E_view.subview_of (me t) t.eview with
                | Some my_sv -> E_view.Subview_id.equal my_sv.E_view.sv_id sv
                | None -> false
              in
              if mine then t.callbacks.on_message ~sender payload
          | Ctl ctl -> handle_ctl t ctl);
    }
  in
  let ep =
    Endpoint.create sim net ~me:me_ ~universe ~config ~callbacks:ep_callbacks
  in
  t.ep <- Some ep;
  refresh_annotation t;
  t

let multicast t ?order payload = Endpoint.multicast (get_ep t) ?order (App payload)

let multicast_subview t ?order payload =
  let sv = (my_subview t).E_view.sv_id in
  Endpoint.multicast (get_ep t) ?order (Scoped { sv; payload })

(* Merge requests must be totally ordered so that every member applies them
   at the same point of its e-view sequence (Property 6.1). *)
let svset_merge t ids =
  Endpoint.multicast (get_ep t) ~order:Endpoint.Total (Ctl (Svset_merge_req ids))

let subview_merge t ids =
  Endpoint.multicast (get_ep t) ~order:Endpoint.Total (Ctl (Subview_merge_req ids))

let set_annotation t ann =
  t.app_ann <- ann;
  refresh_annotation t

let is_blocked t = Endpoint.is_blocked (get_ep t)

let is_alive t = Endpoint.is_alive (get_ep t)

let leave t = Endpoint.leave (get_ep t)

let kill t = Endpoint.kill (get_ep t)

let corrupt t c = Endpoint.corrupt (get_ep t) c

let endpoint_stats t = Endpoint.stats (get_ep t)
