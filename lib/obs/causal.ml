(* Happened-before DAG construction (see causal.mli for the edge model).

   One forward pass over the stream.  Matching state:

   - program order: last node id per process incarnation;
   - message edges: FIFO queue of unconsumed wire copies per
     (kind, src, dst node, identity) — [Send] and [Dup] push one copy,
     [Recv] and arrival-time [Drop]s pop one.  Destinations are keyed by
     node, not incarnation, because [send_node] records the pseudo-proc
     [n<dst>] (inc = -1) on the send side but the resolved incarnation on
     delivery;
   - barriers: the first [Propose] node and every [Flush] node per view id.

   All edges link an already-seen node to the current one, so the DAG is
   acyclic by construction; [validate] re-checks that every edge points
   backwards. *)

type edge_kind = Program | Message | Barrier

type stats = {
  c_nodes : int;
  c_program_edges : int;
  c_message_edges : int;
  c_barrier_edges : int;
  c_orphan_recvs : int;
}

type t = {
  g_nodes : Recorder.entry array;
  g_preds : (int * edge_kind) list array;
  g_stats : stats;
  g_orphans : int list;
}

let nodes t = t.g_nodes

let preds t id = t.g_preds.(id)

let stats t = t.g_stats

let orphans t = t.g_orphans

(* The process whose program the event belongs to.  Environment events
   (partitions, healing, oracle verdicts, notes) belong to no program; an
   in-flight drop is nobody's action either — its causality is the message
   edge from the send that put the copy on the wire. *)
let actor (ev : Event.t) =
  match ev with
  | Event.Send { src; _ } | Event.Dup { src; _ } -> Some src
  | Event.Recv { dst; _ } -> Some dst
  | Event.Drop { src; reason; _ } ->
      (* Send-time drops are decided by (and charged to) the sender;
         arrival-time reasons have no acting process. *)
      if Event.send_time_drop reason then Some src else None
  | Event.Retransmit { proc; _ }
  | Event.Backoff { proc; _ }
  | Event.Suspect { proc; _ }
  | Event.Unsuspect { proc; _ }
  | Event.Propose { proc; _ }
  | Event.Flush { proc; _ }
  | Event.Install { proc; _ }
  | Event.Eview { proc; _ }
  | Event.Mode_change { proc; _ }
  | Event.Settle { proc; _ }
  | Event.Task_start { proc; _ }
  | Event.Task_done { proc; _ }
  | Event.Crash { proc }
  | Event.Corrupt { proc; _ } ->
      Some proc
  | Event.Partition _ | Event.Heal | Event.Quarantine _ | Event.Note _ -> None

(* Wire-copy matching key.  [dst] by node (see header). *)
type copy_key = string * Event.proc * int * Event.msg option

let of_entries (entries : Recorder.entry list) =
  let g_nodes = Array.of_list entries in
  let n = Array.length g_nodes in
  let g_preds = Array.make n [] in
  let p_edges = ref 0 and m_edges = ref 0 and b_edges = ref 0 in
  let add_edge kind src dst =
    g_preds.(dst) <- (src, kind) :: g_preds.(dst);
    match kind with
    | Program -> incr p_edges
    | Message -> incr m_edges
    | Barrier -> incr b_edges
  in
  (* last node per process incarnation *)
  let last_of : (Event.proc, int) Hashtbl.t = Hashtbl.create 64 in
  (* unconsumed wire copies per matching key, FIFO *)
  let pending : (copy_key, int Queue.t) Hashtbl.t = Hashtbl.create 256 in
  (* first Propose node / all Flush nodes (reverse order) per vid *)
  let propose_of : (Event.vid, int) Hashtbl.t = Hashtbl.create 16 in
  let flushes_of : (Event.vid, int list) Hashtbl.t = Hashtbl.create 16 in
  let rev_orphans = ref [] in
  let push_copy key i =
    let q =
      match Hashtbl.find_opt pending key with
      | Some q -> q
      | None ->
          let q = Queue.create () in
          Hashtbl.replace pending key q;
          q
    in
    Queue.push i q
  in
  let pop_copy key =
    match Hashtbl.find_opt pending key with
    | Some q when not (Queue.is_empty q) -> Some (Queue.pop q)
    | Some _ | None -> None
  in
  Array.iteri
    (fun i (nd : Recorder.entry) ->
      (* program-order edge from the acting process's previous node *)
      (match actor nd.event with
      | Some p ->
          (match Hashtbl.find_opt last_of p with
          | Some j -> add_edge Program j i
          | None -> ());
          Hashtbl.replace last_of p i
      | None -> ());
      match nd.event with
      | Event.Send { src; dst; kind; msg; _ } | Event.Dup { src; dst; kind; msg }
        ->
          push_copy (kind, src, dst.Event.node, msg) i
      | Event.Recv { src; dst; kind; msg } -> (
          match pop_copy (kind, src, dst.Event.node, msg) with
          | Some j -> add_edge Message j i
          | None -> rev_orphans := i :: !rev_orphans)
      | Event.Drop { src; dst; kind; reason; msg } ->
          (* Arrival-time drops consume the copy their send put on the wire;
             send-time drops never had one, and [pop_copy] returning [None]
             covers both a send-time reason and a truncated recording. *)
          if not (Event.send_time_drop reason) then (
            match pop_copy (kind, src, dst.Event.node, msg) with
            | Some j -> add_edge Message j i
            | None -> ())
      | Event.Propose { vid; _ } ->
          if not (Hashtbl.mem propose_of vid) then Hashtbl.replace propose_of vid i
      | Event.Flush { vid; _ } ->
          (match Hashtbl.find_opt propose_of vid with
          | Some j -> add_edge Barrier j i
          | None -> ());
          let prev =
            match Hashtbl.find_opt flushes_of vid with Some l -> l | None -> []
          in
          Hashtbl.replace flushes_of vid (i :: prev)
      | Event.Install { vid; _ } ->
          (match Hashtbl.find_opt propose_of vid with
          | Some j -> add_edge Barrier j i
          | None -> ());
          List.iter
            (fun j -> add_edge Barrier j i)
            (match Hashtbl.find_opt flushes_of vid with
            | Some l -> List.rev l
            | None -> [])
      | _ -> ())
    g_nodes;
  {
    g_nodes;
    g_preds;
    g_stats =
      {
        c_nodes = n;
        c_program_edges = !p_edges;
        c_message_edges = !m_edges;
        c_barrier_edges = !b_edges;
        c_orphan_recvs = List.length !rev_orphans;
      };
    g_orphans = List.rev !rev_orphans;
  }

let validate t =
  let bad = ref None in
  Array.iteri
    (fun i ps ->
      List.iter
        (fun (j, _) ->
          if (j < 0 || j >= i) && !bad = None then bad := Some (j, i))
        ps)
    t.g_preds;
  (* With every predecessor earlier in the stream, stream order is a
     topological order, so the graph is acyclic. *)
  match !bad with
  | Some (j, i) ->
      Error
        (Printf.sprintf "edge %d -> %d violates stream topological order" j i)
  | None -> Ok ()

(* --- live collector ------------------------------------------------------- *)

type collector = { mutable rev : Recorder.entry list }

let collector () = { rev = [] }

let observe c ~time event = c.rev <- { Recorder.time; event } :: c.rev

let collector_entries c = List.rev c.rev

let of_collector c = of_entries (collector_entries c)
