module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View

type 'a body =
  | User of 'a
  | Relay of { orig : Proc_id.t; user : 'a }
  | Causal of { deps : (Proc_id.t * int) list; user : 'a }

type 'a data = {
  vid : View.Id.t;
  sender : Proc_id.t;
  seq : int;
  body : 'a body;
}

type ('a, 'ann) t =
  | Heartbeat
  | Leave_announce
  | Data of 'a data
  | To_request of { vid : View.Id.t; rseq : int; user : 'a }
  | Batch of 'a data list
  | To_batch of { vid : View.Id.t; rseq0 : int; users : 'a list }
  | Nack of { vid : View.Id.t; sender : Proc_id.t; missing : int list }
  | Stable_report of { vid : View.Id.t; vector : (Proc_id.t * int) list }
  | Retransmit of 'a data list
  | Reliable of { rid : int; payload : ('a, 'ann) t }
  | Ctl_ack of { rid : int }
  | Propose of { pvid : View.Id.t; members : Proc_id.t list }
  | Propose_reject of { pvid : View.Id.t; max_vid : View.Id.t }
  | Flush_ack of {
      pvid : View.Id.t;
      from_view : View.Id.t;
      seen : 'a data list;
      ann : 'ann option;
    }
  | Install of {
      pvid : View.Id.t;
      view : View.t;
      sync : (View.Id.t * 'a data list) list;
      anns : (Proc_id.t * 'ann option) list;
      priors : (Proc_id.t * View.Id.t) list;
    }

let compare_data a b =
  match Proc_id.compare a.sender b.sender with
  | 0 -> Int.compare a.seq b.seq
  | c -> c

(* Nominal sizes: identifiers 8 bytes, headers 16, plus payload sizes.  Only
   relative magnitudes matter for the overhead experiments. *)
let id_size = 8
let header = 16

let size_of_body ~user = function
  | User u -> user u
  | Relay { user = u; _ } -> id_size + user u
  | Causal { deps; user = u } -> (12 * List.length deps) + user u

let size_of_data ~user d = header + id_size + size_of_body ~user d.body

let rec size_of ~user ~ann = function
  | Heartbeat -> header
  | Leave_announce -> header
  | Data d -> size_of_data ~user d
  | To_request { user = u; _ } -> header + id_size + user u
  | Batch ds ->
      List.fold_left (fun acc d -> acc + size_of_data ~user d) header ds
  | To_batch { users; _ } ->
      List.fold_left (fun acc u -> acc + 4 + user u) (header + id_size) users
  | Nack { missing; _ } -> header + (2 * id_size) + (4 * List.length missing)
  | Stable_report { vector; _ } ->
      header + id_size + (12 * List.length vector)
  | Retransmit ds ->
      List.fold_left (fun acc d -> acc + size_of_data ~user d) header ds
  | Reliable { payload; _ } -> 4 + size_of ~user ~ann payload
  | Ctl_ack _ -> header + 4
  | Propose { members; _ } ->
      header + id_size + (id_size * List.length members)
  | Propose_reject _ -> header + (2 * id_size)
  | Flush_ack { seen; ann = a; _ } ->
      let ann_size = match a with Some x -> ann x | None -> 0 in
      List.fold_left
        (fun acc d -> acc + size_of_data ~user d)
        (header + (2 * id_size) + ann_size)
        seen
  | Install { view; sync; anns; priors; _ } ->
      let sync_size =
        List.fold_left
          (fun acc (_, ds) ->
            List.fold_left (fun a d -> a + size_of_data ~user d) (acc + id_size) ds)
          0 sync
      in
      let ann_size =
        List.fold_left
          (fun acc (_, a) ->
            acc + id_size + match a with Some x -> ann x | None -> 0)
          0 anns
      in
      header + id_size
      + (id_size * View.size view)
      + sync_size + ann_size
      + (2 * id_size * List.length priors)

let body_user = function
  | User u -> u
  | Relay { user = u; _ } -> u
  | Causal { user = u; _ } -> u

(* Every application message a wire message carries, for per-payload
   lineage accounting: one identity for [Data]/[To_request] (through
   [Reliable] re-wraps, relays and causal wraps), one per carried payload
   for [Batch]/[To_batch], none for control traffic.  [Retransmit] reports
   none too: the typed [Event.Retransmit] covers re-sends, and counting
   them as fresh copies would double-book the originals. *)
let rec idents ~user = function
  | Data d -> Option.to_list (user (body_user d.body))
  | To_request { user = u; _ } -> Option.to_list (user u)
  | Batch ds -> List.filter_map (fun d -> user (body_user d.body)) ds
  | To_batch { users; _ } -> List.filter_map user users
  | Reliable { payload; _ } -> idents ~user payload
  | Heartbeat | Leave_announce | Nack _ | Stable_report _ | Retransmit _
  | Ctl_ack _ | Propose _ | Propose_reject _ | Flush_ack _ | Install _ ->
      []

let rec kind = function
  | Heartbeat -> "heartbeat"
  | Leave_announce -> "leave"
  | Data { body = User _; _ } -> "data"
  | Data { body = Relay _; _ } -> "relay"
  | Data { body = Causal _; _ } -> "causal"
  | To_request _ -> "to-request"
  | Batch _ -> "batch"
  | To_batch _ -> "to-batch"
  | Nack _ -> "nack"
  | Stable_report _ -> "stable"
  | Retransmit _ -> "retransmit"
  | Reliable { payload; _ } -> kind payload
  | Ctl_ack _ -> "ctl-ack"
  | Propose _ -> "propose"
  | Propose_reject _ -> "propose-reject"
  | Flush_ack _ -> "flush-ack"
  | Install _ -> "install"
