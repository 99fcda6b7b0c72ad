module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module Mode = Evs_core.Mode
module Evs = Evs_core.Evs
module Endpoint = Vs_vsync.Endpoint

type payload =
  | Inc of int
  | Report of { vid : View.Id.t; value : int; settled : bool }

type ann = { a_settled : bool; a_value : int }

type net = (payload, ann) Evs.net

let payload_size = function Inc _ -> 8 | Report _ -> 24

let make_net sim config =
  Evs.make_net ~payload_size ~ann_size:(fun _ -> 9) sim config

type t = {
  mutable obj : (payload, ann) Group_object.t option;
  mutable value : int;
  mutable authoritative : bool;
      (* true once this replica has settled at least once: its value is a
         valid lower bound of the logical counter *)
  mutable round : (int * bool) Group_object.round option;
      (* the settle round in progress: each member's (value, settled) *)
}

let get_obj t = match t.obj with Some o -> o | None -> assert false

let value t = t.value

let obj t = get_obj t

let refresh_annotation t =
  Group_object.set_annotation (get_obj t)
    (Some { a_settled = t.authoritative; a_value = t.value })

let increment t ~by =
  if Mode.equal (Group_object.mode (get_obj t)) Mode.Normal then begin
    Group_object.multicast (get_obj t) ~order:Endpoint.Total (Inc by);
    Ok ()
  end
  else Error `Not_serving

(* The settling protocol: every member reports its value; once reports from
   every member of the view are in, adopt the maximum of the settled ones
   (of all, if none is settled) and reconcile.  Our own report is recorded
   on delivery like everyone else's. *)
let handle_settle t _problem _ev =
  let obj = get_obj t in
  let round = Group_object.round obj in
  t.round <- Some round;
  (* FIFO suffices: report collection is a set, and FIFO multicast is
     reliable within the view while total-order requests can race a view
     change. *)
  let vid = Group_object.round_vid round in
  Group_object.multicast obj (Report { vid; value = t.value; settled = t.authoritative })

let adopt t reports =
  let max_of = List.fold_left (fun acc (_, (v, _)) -> max v acc) in
  (match List.filter (fun (_, (_, settled)) -> settled) reports with
  | [] -> t.value <- max_of t.value reports
  | settled -> t.value <- max_of min_int settled);
  t.authoritative <- true;
  t.round <- None;
  Group_object.complete_settling (get_obj t);
  refresh_annotation t

let handle_message t ~sender payload =
  match payload with
  | Inc by ->
      t.value <- t.value + by;
      refresh_annotation t
  | Report { vid; value; settled } -> (
      match t.round with
      | Some r ->
          Group_object.report r ~vid ~sender (value, settled) |> Option.iter (adopt t)
      | None -> ())

let create sim net ~me:me_ ~universe ~config () =
  let t = { obj = None; value = 0; authoritative = false; round = None } in
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
      Group_object.on_mode = (fun _ -> refresh_annotation t);
      on_settle = (fun problem ev -> handle_settle t problem ev);
      on_message = (fun ~sender payload -> handle_message t ~sender payload);
    }
  in
  t.obj <- Some (Group_object.create sim net ~me:me_ ~universe ~config ~spec ~callbacks);
  refresh_annotation t;
  t
