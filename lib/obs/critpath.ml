(* Critical-path extraction (see critpath.mli for the model).

   The install decomposition steps Stall's anchor tracker over the DAG's
   nodes and cuts each install at the Stall.attr it yields, so the
   flush-ack-wait and stability-wait components are the vsmon stall
   attribution itself.  Only the propose phase [t_prop, t_self] is refined
   further, by the backward DAG walk. *)

module Hashtblx = Vs_util.Hashtblx

type seg_kind =
  | Local_compute
  | Network_flight
  | Retransmit_wait
  | Flush_ack_wait
  | Stability_wait
  | Suspect_timeout

let seg_kind_to_string = function
  | Local_compute -> "local-compute"
  | Network_flight -> "network-flight"
  | Retransmit_wait -> "retransmit-wait"
  | Flush_ack_wait -> "flush-ack-wait"
  | Stability_wait -> "stability-wait"
  | Suspect_timeout -> "suspect-timeout"

let all_seg_kinds =
  [
    Local_compute;
    Network_flight;
    Retransmit_wait;
    Flush_ack_wait;
    Stability_wait;
    Suspect_timeout;
  ]

let kind_index = function
  | Local_compute -> 0
  | Network_flight -> 1
  | Retransmit_wait -> 2
  | Flush_ack_wait -> 3
  | Stability_wait -> 4
  | Suspect_timeout -> 5

let n_kinds = List.length all_seg_kinds

type segment = {
  s_kind : seg_kind;
  s_from : float;
  s_until : float;
  s_proc : Event.proc;
  s_link : Event.proc option;
}

let seg_duration s = s.s_until -. s.s_from

let seg_owner s =
  match s.s_link with
  | None -> Event.proc_to_string s.s_proc
  | Some dst ->
      Event.proc_to_string s.s_proc ^ "->" ^ Event.proc_to_string dst

type install_path = {
  ip_attr : Stall.attr;
  ip_segments : segment list;
  ip_straggler : Event.proc option;
}

let latency ip = ip.ip_attr.Stall.a_time -. ip.ip_attr.Stall.a_proposed

type view_row = {
  vr_vid : Event.vid;
  vr_installs : int;
  vr_latency : float;
  vr_kind_seconds : (seg_kind * float) list;
  vr_straggler : (Event.proc * float) option;
}

type op_stats = {
  o_ops : int;
  o_latency_total : float;
  o_latency_max : float;
  o_kind_seconds : (seg_kind * float) list;
  o_retransmit_delayed : int;
  o_slowest : (Event.msg * float) option;
}

type t = {
  installs : install_path list;
  views : view_row list;
  ops : op_stats;
  straggler : (Event.proc * float) option;
}

(* --- backward walk -------------------------------------------------------- *)

(* Latest-finishing predecessor: max time, ties to the max stream id.  Two
   edges can leave the same node: a process's own send consumed by its next
   event (program and message), or its own propose or flush-ack before its
   next flush or install (program and barrier).  There the message or
   barrier edge wins, since that is the wait the walk explains.  With that
   rule the choice does not depend on the order of [Causal.preds]. *)
let best_pred dag cur =
  let nodes = Causal.nodes dag in
  List.fold_left
    (fun best (j, k) ->
      match best with
      | None -> Some (j, k)
      | Some (j', k') ->
          let c =
            Float.compare nodes.(j).Recorder.time nodes.(j').Recorder.time
          in
          let waits =
            match (k', k) with
            | Causal.Program, (Causal.Message | Causal.Barrier) -> true
            | _ -> false
          in
          if c > 0 || (c = 0 && j > j') || (Int.equal j j' && waits) then
            Some (j, k)
          else best)
    None (Causal.preds dag cur)

(* A segment charged to one process rather than a wire link. *)
let local s_kind s_from s_until s_proc =
  { s_kind; s_from; s_until; s_proc; s_link = None }

let classify dag ~cur ~pred ~edge ~s_from ~s_until ~fallback =
  let nodes = Causal.nodes dag in
  let owner_of ev =
    match Causal.actor ev with Some p -> p | None -> fallback
  in
  match (edge : Causal.edge_kind) with
  | Causal.Message -> (
      (* [cur] consumed a wire copy; the hop is charged to the sender. *)
      match nodes.(cur).Recorder.event with
      | Event.Recv { src; dst; kind; _ } | Event.Drop { src; dst; kind; _ } ->
          let s_kind =
            if kind = "retransmit" then Retransmit_wait else Network_flight
          in
          { s_kind; s_from; s_until; s_proc = src; s_link = Some dst }
      | ev -> local Network_flight s_from s_until (owner_of ev))
  | Causal.Barrier -> (
      match nodes.(pred).Recorder.event with
      | Event.Flush { proc; _ } ->
          (* Waiting on [proc]'s flush-ack to clear the sync barrier. *)
          local Flush_ack_wait s_from s_until proc
      | _ ->
          (* Propose -> Flush: the member draining and flushing — its own
             work, not a wait on anyone else. *)
          local Local_compute s_from s_until
            (owner_of nodes.(cur).Recorder.event))
  | Causal.Program -> (
      match nodes.(pred).Recorder.event with
      | Event.Suspect { proc; _ } ->
          (* The gap after a suspicion is the detector timeout driving the
             change. *)
          local Suspect_timeout s_from s_until proc
      | ev -> local Local_compute s_from s_until (owner_of ev))

(* Chronological segments tiling [stop_time, time(start)] exactly: the
   recorded stream is time-ordered, so every predecessor's timestamp is <=
   the current node's and consecutive segments share their boundary. *)
let walk dag ~stop_time ~start ~fallback =
  let nodes = Causal.nodes dag in
  let rec go cur acc =
    let tcur = nodes.(cur).Recorder.time in
    if tcur <= stop_time then acc
    else
      match best_pred dag cur with
      | None ->
          (* Frontier root inside the window: residual local work. *)
          let p =
            match Causal.actor nodes.(cur).Recorder.event with
            | Some p -> p
            | None -> fallback
          in
          local Local_compute stop_time tcur p :: acc
      | Some (j, edge) ->
          let tj = nodes.(j).Recorder.time in
          let s_from = Float.max stop_time tj in
          let acc =
            if tcur > s_from then
              classify dag ~cur ~pred:j ~edge ~s_from ~s_until:tcur ~fallback
              :: acc
            else acc
          in
          go j acc
  in
  go start []

(* --- charge bookkeeping --------------------------------------------------- *)

let charge tbl (p : Event.proc) seconds =
  let prev =
    match Event.Proc_tbl.find_opt tbl p with Some c -> c | None -> 0.
  in
  Event.Proc_tbl.replace tbl p (prev +. seconds)

let charge_segments tbl segs =
  List.iter (fun s -> charge tbl s.s_proc (seg_duration s)) segs

(* Deterministic argmax: bindings sorted by proc, strict improvement keeps
   the smallest process on ties. *)
let top_charge tbl =
  List.fold_left
    (fun best (p, c) ->
      match best with
      | Some (_, c') when c <= c' -> best
      | _ -> Some (p, c))
    None
    (Event.Proc_tbl.sorted_bindings tbl)

(* Seconds per kind, each segment added into [a] in list order. *)
let add_segments a segs =
  List.iter
    (fun s -> a.(kind_index s.s_kind) <- a.(kind_index s.s_kind) +. seg_duration s)
    segs

let kind_sums segs =
  let a = Array.make n_kinds 0. in
  add_segments a segs;
  a

let kind_list a = List.map (fun k -> (k, a.(kind_index k))) all_seg_kinds

(* --- the full analysis ---------------------------------------------------- *)

(* The install's segments, cut at the attribution's anchors: the propose
   phase is refined by the DAG walk from the installer's own flush-ack (a
   single local segment when there is none or the clamp moved the anchor),
   the flush-ack and stability phases are one segment each. *)
let install_segments dag (i : Stall.install) (a : Stall.attr) =
  let phase kind from until p =
    if until <= from then [] else [ local kind from until p ]
  in
  let proc = a.Stall.a_proc in
  let propose =
    match i.Stall.i_own_flush with
    | Some (t, j) when t = a.Stall.a_own_flush && t > a.Stall.a_proposed ->
        walk dag ~stop_time:a.Stall.a_proposed ~start:j ~fallback:proc
    | Some _ | None ->
        phase Local_compute a.Stall.a_proposed a.Stall.a_own_flush proc
  in
  let last_sender =
    match i.Stall.i_last_flush with Some (_, p) -> p | None -> proc
  in
  propose
  @ phase Flush_ack_wait a.Stall.a_own_flush a.Stall.a_last_flush last_sender
  (* the coordinator's stability decision + install delivery *)
  @ phase Stability_wait a.Stall.a_last_flush a.Stall.a_time
      a.Stall.a_vid.Event.proposer

let add_into acc sums = Array.iteri (fun k v -> acc.(k) <- acc.(k) +. v) sums

(* Per-view rows, sorted by view id; each view's installs are folded in
   install order. *)
let view_rows installs =
  List.map
    (fun (vid, ips) ->
      let kinds = Array.make n_kinds 0. in
      let charges = Event.Proc_tbl.create 8 in
      List.iter
        (fun ip ->
          charge_segments charges ip.ip_segments;
          add_into kinds (kind_sums ip.ip_segments))
        ips;
      {
        vr_vid = vid;
        vr_installs = List.length ips;
        vr_latency = List.fold_left (fun acc ip -> acc +. latency ip) 0. ips;
        vr_kind_seconds = kind_list kinds;
        vr_straggler = top_charge charges;
      })
    (Vs_util.Listx.group_by
       ~key:(fun ip -> ip.ip_attr.Stall.a_vid)
       ~cmp_key:Event.compare_vid installs)

let of_dag dag =
  let anchors = Stall.tracker () in
  (* per-op endpoints: first Send node, last Recv node *)
  let op_first = Event.Msg_tbl.create 256 in
  let op_last = Event.Msg_tbl.create 256 in
  let rev_installs = ref [] in
  Array.iteri
    (fun i (nd : Recorder.entry) ->
      let time = nd.Recorder.time in
      match Stall.step anchors ~time nd.Recorder.event with
      | Some install ->
          Option.iter
            (fun a ->
              let segs = install_segments dag install a in
              let charges = Event.Proc_tbl.create 8 in
              charge_segments charges segs;
              rev_installs :=
                {
                  ip_attr = a;
                  ip_segments = segs;
                  ip_straggler = Option.map fst (top_charge charges);
                }
                :: !rev_installs)
            (Stall.attr install)
      | None -> (
          match nd.Recorder.event with
          | Event.Send { msg = Some m; _ } ->
              if not (Event.Msg_tbl.mem op_first m) then
                Event.Msg_tbl.replace op_first m (time, i)
          | Event.Recv { msg = Some m; _ } ->
              Event.Msg_tbl.replace op_last m (time, i)
          | _ -> ()))
    (Causal.nodes dag);
  let installs = List.rev !rev_installs in
  let global_charges = Event.Proc_tbl.create 16 in
  List.iter (fun ip -> charge_segments global_charges ip.ip_segments) installs;
  (* per-op walks, aggregated in identity order *)
  let op_kind = Array.make n_kinds 0. in
  let o_ops = ref 0 in
  let o_total = ref 0. in
  let o_max = ref 0. in
  let o_retrans = ref 0 in
  let o_slowest = ref None in
  List.iter
    (fun (m, (t_send, _)) ->
      match Event.Msg_tbl.find_opt op_last m with
      | None -> () (* never delivered: no applied op to attribute *)
      | Some (t_recv, last_node) ->
          let latency = t_recv -. t_send in
          let segs =
            walk dag ~stop_time:t_send ~start:last_node
              ~fallback:m.Event.origin
          in
          let sums = kind_sums segs in
          add_into op_kind sums;
          incr o_ops;
          o_total := !o_total +. latency;
          if sums.(kind_index Retransmit_wait) > 0. then incr o_retrans;
          if latency > !o_max then begin
            o_max := latency;
            o_slowest := Some (m, latency)
          end)
    (Event.Msg_tbl.sorted_bindings op_first);
  {
    installs;
    views = view_rows installs;
    ops =
      {
        o_ops = !o_ops;
        o_latency_total = !o_total;
        o_latency_max = !o_max;
        o_kind_seconds = kind_list op_kind;
        o_retransmit_delayed = !o_retrans;
        o_slowest = !o_slowest;
      };
    straggler = top_charge global_charges;
  }

let of_entries entries = of_dag (Causal.of_entries entries)

let path_sum ip =
  List.fold_left (fun acc s -> acc +. seg_duration s) 0. ip.ip_segments

(* Segment sums are telescoping float sums, so "exact" means within a
   relative 1e-9 — the same tolerance the test suite asserts with. *)
let default_tol = 1e-9

let close ~tol a b =
  Float.abs (a -. b)
  <= tol *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

(* Every install's segments added into one array in stream order — not
   per-install partial sums, which would round differently. *)
let kind_array t =
  let a = Array.make n_kinds 0. in
  List.iter (fun ip -> add_segments a ip.ip_segments) t.installs;
  a

let kind_seconds t = kind_list (kind_array t)

let consistent_with_stall t attrs =
  let tol = default_tol in
  let sums_ok =
    List.for_all (fun ip -> close ~tol (path_sum ip) (latency ip)) t.installs
  in
  let kinds = kind_array t in
  let kind k = kinds.(kind_index k) in
  let flush_attr, stab_attr =
    List.fold_left
      (fun (f, s) (a : Stall.attr) ->
        (f +. a.Stall.a_flush_wait, s +. a.Stall.a_stability_wait))
      (0., 0.) attrs
  in
  sums_ok
  && close ~tol (kind Flush_ack_wait) flush_attr
  && close ~tol (kind Stability_wait) stab_attr

(* --- rendering ------------------------------------------------------------ *)

(* The ["straggler"] / ["straggler_s"] pair of a view row and the whole run. *)
let straggler_fields s =
  [
    ( "straggler",
      match s with
      | Some (p, _) -> Json.Str (Event.proc_to_string p)
      | None -> Json.Null );
    ( "straggler_s",
      match s with Some (_, c) -> Json.Float c | None -> Json.Null );
  ]

let straggler_repr = function
  | None -> "-"
  | Some (p, c) ->
      Printf.sprintf "%s (%.4fs)" (Event.proc_to_string p) c

let to_table t =
  let table =
    Vs_stats.Table.create
      ~title:
        "critical path: per-view install latency decomposition (seconds on \
         the path)"
      ~columns:
        ([ "view"; "installs"; "latency (s)" ]
        @ List.map seg_kind_to_string all_seg_kinds
        @ [ "straggler" ])
  in
  List.iter
    (fun vr ->
      Vs_stats.Table.add_row table
        ([
           Event.vid_to_string vr.vr_vid;
           Vs_stats.Table.fint vr.vr_installs;
           Vs_stats.Table.ffloat ~decimals:4 vr.vr_latency;
         ]
        @ List.map
            (fun (_, v) -> Vs_stats.Table.ffloat ~decimals:4 v)
            vr.vr_kind_seconds
        @ [ straggler_repr vr.vr_straggler ]))
    t.views;
  table

let kind_fields sums =
  List.map
    (fun (k, v) -> (seg_kind_to_string k, Json.Float v))
    sums

let segment_json s =
  Json.Obj
    [
      ("kind", Json.Str (seg_kind_to_string s.s_kind));
      ("from", Json.Float s.s_from);
      ("until", Json.Float s.s_until);
      ("seconds", Json.Float (seg_duration s));
      ("owner", Json.Str (seg_owner s));
    ]

let install_json ip =
  Json.Obj
    [
      ("proc", Json.Str (Event.proc_to_string ip.ip_attr.Stall.a_proc));
      ("view", Json.Str (Event.vid_to_string ip.ip_attr.Stall.a_vid));
      ("time", Json.Float ip.ip_attr.Stall.a_time);
      ("latency_s", Json.Float (latency ip));
      ( "straggler",
        match ip.ip_straggler with
        | Some p -> Json.Str (Event.proc_to_string p)
        | None -> Json.Null );
      ("segments", Json.Arr (List.map segment_json ip.ip_segments));
    ]

let view_json vr =
  Json.Obj
    ([
       ("id", Json.Str (Event.vid_to_string vr.vr_vid));
       ("installs", Json.Int vr.vr_installs);
       ("latency_s", Json.Float vr.vr_latency);
     ]
    @ kind_fields vr.vr_kind_seconds
    @ straggler_fields vr.vr_straggler)

let ops_json o =
  Json.Obj
    ([
       ("ops", Json.Int o.o_ops);
       ("latency_total_s", Json.Float o.o_latency_total);
       ("latency_max_s", Json.Float o.o_latency_max);
       ("retransmit_delayed", Json.Int o.o_retransmit_delayed);
       ( "slowest",
         match o.o_slowest with
         | Some (m, _) -> Json.Str (Event.msg_to_string m)
         | None -> Json.Null );
     ]
    @ kind_fields o.o_kind_seconds)

let to_json t =
  Json.Obj
    ([
       ("views", Json.Arr (List.map view_json t.views));
       ("installs", Json.Arr (List.map install_json t.installs));
       ("ops", ops_json t.ops);
     ]
    @ straggler_fields t.straggler)

(* One folded stack per (view, segment kind, owner); the stack line itself
   is the key, so sorting the keys sorts the output. *)
let folded t =
  let sums : (string, float) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun ip ->
      List.iter
        (fun s ->
          let stack =
            String.concat ";"
              [
                Event.vid_to_string ip.ip_attr.Stall.a_vid;
                seg_kind_to_string s.s_kind;
                seg_owner s;
              ]
          in
          let prev = Option.value ~default:0. (Hashtbl.find_opt sums stack) in
          Hashtbl.replace sums stack (prev +. seg_duration s))
        ip.ip_segments)
    t.installs;
  let buf = Buffer.create 1024 in
  List.iter
    (fun (stack, seconds) ->
      let us = int_of_float ((seconds *. 1e6) +. 0.5) in
      if us > 0 then Buffer.add_string buf (Printf.sprintf "%s %d\n" stack us))
    (Hashtblx.sorted_bindings ~cmp:String.compare sums);
  Buffer.contents buf
