module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module Mode = Evs_core.Mode
module Evs = Evs_core.Evs
module E_view = Evs_core.E_view
module Endpoint = Vs_vsync.Endpoint

type stamp = { counter : int; origin : int }

let compare_stamp a b =
  match Int.compare a.counter b.counter with
  | 0 -> Int.compare a.origin b.origin
  | c -> c

type policy =
  | Lww
  | Primary_subview
  | Custom of (string -> string * stamp -> string * stamp -> string * stamp)

type payload =
  | Put of { key : string; value : string }
  | Dump of { vid : View.Id.t; entries : (string * (string * stamp)) list }

type ann = { a_settled : bool }

type net = (payload, ann) Evs.net

let payload_size = function
  | Put { key; value } -> 16 + String.length key + String.length value
  | Dump { entries; _ } ->
      List.fold_left
        (fun acc (k, (v, _)) -> acc + String.length k + String.length v + 16)
        24 entries

let make_net sim config =
  Evs.make_net ~payload_size ~ann_size:(fun _ -> 1) sim config

module Smap = Map.Make (String)

type settle_state = {
  ss_round : (string * (string * stamp)) list Group_object.round;
      (* each member's dump *)
  ss_primary : Proc_id.t list option;
      (* the primary cluster, fixed at settle start: computed later, the
         structure may already reflect the peers' subview merges *)
}

type t = {
  policy : policy;
  on_apply : (origin:int -> key:string -> value:string -> unit) option;
      (* observation hook: fires once per locally applied Put — load
         experiments count deliveries and sample end-to-end latency here *)
  mutable obj : (payload, ann) Group_object.t option;
  mutable entries : (string * stamp) Smap.t;
  mutable max_counter : int;
  mutable settled : bool;
  mutable settle : settle_state option;
}

let get_obj t = match t.obj with Some o -> o | None -> assert false

let obj t = get_obj t

let refresh_annotation t =
  Group_object.set_annotation (get_obj t) (Some { a_settled = t.settled })

let put t ~key ~value =
  if Mode.equal (Group_object.mode (get_obj t)) Mode.Normal then begin
    Group_object.multicast (get_obj t) ~order:Endpoint.Total (Put { key; value });
    Ok ()
  end
  else Error `Not_serving

let get t ~key = Smap.find_opt key t.entries

let keys t = List.map fst (Smap.bindings t.entries)

let apply_put t ~origin ~key ~value =
  t.max_counter <- t.max_counter + 1;
  t.entries <-
    Smap.add key (value, { counter = t.max_counter; origin }) t.entries;
  match t.on_apply with
  | Some f -> f ~origin ~key ~value
  | None -> ()

let lww_pick key a b =
  ignore key;
  if compare_stamp (snd a) (snd b) >= 0 then a else b

let merge_dumps t pick dumps =
  let merged =
    List.fold_left
      (fun acc entries ->
        List.fold_left
          (fun acc (key, candidate) ->
            match Smap.find_opt key acc with
            | Some existing ->
                (* An equal stamp is the same write reported by another
                   replica, not a divergence — never re-merged. *)
                if compare_stamp (snd existing) (snd candidate) = 0 then acc
                else Smap.add key (pick key existing candidate) acc
            | None -> Smap.add key candidate acc)
          acc entries)
      Smap.empty dumps
  in
  t.entries <- merged;
  t.max_counter <-
    Smap.fold (fun _ (_, st) acc -> max st.counter acc) merged t.max_counter

(* The primary cluster is the largest settled subview (ties to the one
   containing the smallest process), read off the enriched view at settle
   start — its members' dumps replace the state wholesale.  With no settled
   subview (a creation) fall back to LWW. *)
let primary_members_of (ev : E_view.t) ~settled =
  let candidates =
    List.filter
      (fun sv -> List.exists settled sv.E_view.sv_members)
      ev.E_view.structure.E_view.subviews
  in
  let best =
    List.fold_left
      (fun best sv ->
        match best with
        | None -> Some sv
        | Some b ->
            let c =
              Int.compare
                (List.length sv.E_view.sv_members)
                (List.length b.E_view.sv_members)
            in
            if c > 0 then Some sv
            else if c < 0 then Some b
            else
              match (sv.E_view.sv_members, b.E_view.sv_members) with
              | sv_first :: _, b_first :: _ ->
                  if Proc_id.compare sv_first b_first < 0 then Some sv
                  else Some b
              | [], _ | _, [] ->
                  invalid_arg
                    "Kv_store.primary_members_of: subview with no members")
      None candidates
  in
  Option.map (fun sv -> sv.E_view.sv_members) best

(* Every member's dump is in: apply the policy, then reconcile. *)
let finish_settling t st dumps =
  (match (t.policy, st.ss_primary) with
  | Custom f, _ -> merge_dumps t f (List.map snd dumps)
  | Primary_subview, Some primary ->
      let dump_of q =
        List.find_map (fun (p, d) -> if Proc_id.equal p q then Some d else None) dumps
      in
      merge_dumps t lww_pick (List.filter_map dump_of primary)
  | (Lww | Primary_subview), _ -> merge_dumps t lww_pick (List.map snd dumps));
  t.settled <- true;
  t.settle <- None;
  refresh_annotation t;
  Group_object.complete_settling (get_obj t)

let handle_settle t _problem (ev : ann Evs.eview_event) =
  let o = get_obj t in
  (* Fix the primary cluster now, from the just-installed structure and the
     flush annotations; a within-view subview merge from a faster peer must
     not enlarge it retroactively. *)
  let settled q =
    match List.assoc_opt q ev.Evs.annotations with
    | Some (Some a) -> a.a_settled
    | Some None | None -> false
  in
  let round = Group_object.round o in
  let primary = primary_members_of ev.Evs.eview ~settled in
  t.settle <- Some { ss_round = round; ss_primary = primary };
  Group_object.multicast o
    (Dump { vid = Group_object.round_vid round; entries = Smap.bindings t.entries })

let handle_message t ~sender payload =
  match payload with
  | Put { key; value } -> apply_put t ~origin:sender.Proc_id.node ~key ~value
  | Dump { vid; entries } -> (
      match t.settle with
      | Some st ->
          Group_object.report st.ss_round ~vid ~sender entries
          |> Option.iter (finish_settling t st)
      | None -> ())

let create sim net ~me:me_ ~universe ?on_apply ~config ~policy () =
  let t =
    {
      policy;
      on_apply;
      obj = None;
      entries = Smap.empty;
      max_counter = 0;
      settled = false;
      settle = None;
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
