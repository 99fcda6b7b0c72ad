module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module Mode = Evs_core.Mode
module Evs = Evs_core.Evs
module Endpoint = Vs_vsync.Endpoint
module Store = Vs_store.Store

type payload =
  | Write of string
  | Report of { vid : View.Id.t; version : int }
  | Update of { vid : View.Id.t; version : int; content : string }

type ann = { a_version : int; a_settled : bool }

type net = (payload, ann) Evs.net

let payload_size = function
  | Write content -> 16 + String.length content
  | Report _ -> 24
  | Update { content; _ } -> 24 + String.length content

let make_net sim config =
  Evs.make_net ~payload_size ~ann_size:(fun _ -> 9) sim config

type config = { votes : int -> int; total_votes : int }

let uniform_votes ~universe =
  { votes = (fun _ -> 1); total_votes = List.length universe }

type settle_state = {
  ss_round : int Group_object.round;  (* each member's version *)
  mutable ss_update_sent : bool;
}

type t = {
  file : config;
  store : Store.t;
  node : int;
  mutable obj : (payload, ann) Group_object.t option;
  mutable content : string;
  mutable version : int;
  mutable settled : bool;
  mutable settle : settle_state option;
}

let get_obj t = match t.obj with Some o -> o | None -> assert false

let mode t = Group_object.mode (get_obj t)

let version t = t.version

let obj t = get_obj t

let quorum t = (t.file.total_votes / 2) + 1

let votes_of_members t members =
  (* Votes are per replica site (node); a membership never contains two
     incarnations of one node, so summing per member is safe. *)
  List.fold_left (fun acc (p : Proc_id.t) -> acc + t.file.votes p.Proc_id.node) 0 members

let persist t =
  Store.put t.store ~node:t.node ~key:"file:content" t.content;
  Store.put t.store ~node:t.node ~key:"file:version" (string_of_int t.version)

let restore t =
  match
    ( Store.get t.store ~node:t.node ~key:"file:content",
      Store.get t.store ~node:t.node ~key:"file:version" )
  with
  | Some content, Some version ->
      t.content <- content;
      t.version <- int_of_string version
  | _ -> ()

let refresh_annotation t =
  Group_object.set_annotation (get_obj t)
    (Some { a_version = t.version; a_settled = t.settled })

let read t =
  match mode t with
  | Mode.Normal | Mode.Reduced -> Ok (t.content, t.version)
  | Mode.Settling -> Error `Not_serving

let write t content =
  if Mode.equal (mode t) Mode.Normal then begin
    Group_object.multicast (get_obj t) ~order:Endpoint.Total (Write content);
    Ok ()
  end
  else Error `Not_serving

let apply_write t content =
  t.version <- t.version + 1;
  t.content <- content;
  persist t;
  refresh_annotation t

(* Settling: once version reports from every member of the view are in, the
   highest version is the current file (quorum intersection guarantees the
   latest write is among the reports whenever the view defines a quorum);
   the smallest holder ships it to the laggards, and each member reconciles
   when it holds a version at least that high. *)
let finish_settling t st versions =
  let o = get_obj t in
  let max_version = List.fold_left (fun acc (_, v) -> max v acc) 0 versions in
  let holders =
    List.filter_map (fun (p, v) -> if v >= max_version then Some p else None) versions
  in
  (match Proc_id.min_member holders with
  | Some h
    when Proc_id.equal h (Group_object.me o)
         && List.exists (fun (_, v) -> v < max_version) versions
         && (not st.ss_update_sent) && t.version >= max_version ->
      st.ss_update_sent <- true;
      let vid = Group_object.round_vid st.ss_round in
      Group_object.multicast o (Update { vid; version = t.version; content = t.content })
  | Some _ | None -> ());
  if t.version >= max_version then begin
    t.settled <- true;
    t.settle <- None;
    persist t;
    refresh_annotation t;
    Group_object.complete_settling o
  end

let maybe_finish_settling t =
  match t.settle with
  | Some st -> Option.iter (finish_settling t st) (Group_object.reports st.ss_round)
  | None -> ()

let handle_settle t _problem _ev =
  let round = Group_object.round (get_obj t) in
  t.settle <- Some { ss_round = round; ss_update_sent = false };
  Group_object.multicast (get_obj t)
    (Report { vid = Group_object.round_vid round; version = t.version })

let handle_message t ~sender payload =
  match payload with
  | Write content ->
      apply_write t content;
      maybe_finish_settling t
  | Report { vid; version } -> (
      match t.settle with
      | Some st ->
          Group_object.report st.ss_round ~vid ~sender version
          |> Option.iter (finish_settling t st)
      | None -> ())
  | Update { vid; version; content } -> (
      match t.settle with
      | Some st when View.Id.equal (Group_object.round_vid st.ss_round) vid ->
          if version > t.version then begin
            t.version <- version;
            t.content <- content;
            persist t
          end;
          maybe_finish_settling t
      | Some _ | None -> ())

let handle_mode t (step : Mode.Machine.step) =
  (* Leaving Normal invalidates the settled lineage: writes may proceed in
     some quorum we no longer belong to. *)
  (match step.Mode.Machine.into_mode with
  | Mode.Reduced -> t.settled <- false
  | Mode.Normal | Mode.Settling -> ());
  refresh_annotation t

let create sim net ~me:me_ ~universe ~config ~file ~store () =
  let t =
    {
      file;
      store;
      node = me_.Proc_id.node;
      obj = None;
      content = "";
      version = 0;
      settled = false;
      settle = None;
    }
  in
  restore t;
  let spec =
    {
      Group_object.target_of =
        (fun members ->
          if votes_of_members t members >= quorum t then Mode.Serve_all
          else Mode.Serve_reduced);
      reconfigure_policy = Mode.On_expansion;
      settled_ann =
        (fun ann -> match ann with Some a -> a.a_settled | None -> false);
    }
  in
  let callbacks =
    {
      Group_object.on_mode = (fun step -> handle_mode t step);
      on_settle = (fun problem ev -> handle_settle t problem ev);
      on_message = (fun ~sender payload -> handle_message t ~sender payload);
    }
  in
  t.obj <- Some (Group_object.create sim net ~me:me_ ~universe ~config ~spec ~callbacks);
  refresh_annotation t;
  t
