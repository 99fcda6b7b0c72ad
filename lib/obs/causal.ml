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

   A node has at most one program and one message predecessor, so those
   live in two [int] arrays (-1 for none); only [Flush] and [Install] nodes
   have barrier predecessors, and only they get a list.  All edges link an
   already-seen node to the current one, so the DAG is acyclic by
   construction; [validate] re-checks that every edge points backwards. *)

module Int_tbl = Vs_util.Hashtblx.Int_tbl

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
  g_program : int array;
  g_message : int array;
  g_barriers : int list Int_tbl.t;  (* Flush and Install nodes, newest first *)
  g_stats : stats;
  g_orphans : int list;
}

let nodes t = t.g_nodes

(* Barriers newest first, then the message edge, then the program edge. *)
let preds t id =
  let p = t.g_program.(id) and m = t.g_message.(id) in
  let tail = if p >= 0 then [ (p, Program) ] else [] in
  let tail = if m >= 0 then (m, Message) :: tail else tail in
  match Int_tbl.find_opt t.g_barriers id with
  | Some bs -> List.fold_right (fun j acc -> (j, Barrier) :: acc) bs tail
  | None -> tail

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

(* Wire-copy matching key.  [k_dst] by node (see header).  The hash reads
   only the ints; [k_kind] is compared only when they all match. *)
type copy_key = {
  k_kind : string;
  k_src : Event.proc;
  k_dst : int;
  k_msg : Event.msg option;
}

module Copies = Hashtbl.Make (struct
  type t = copy_key

  let same (a : Event.proc) (b : Event.proc) =
    Int.equal a.node b.node && Int.equal a.inc b.inc

  let equal a b =
    same a.k_src b.k_src
    && Int.equal a.k_dst b.k_dst
    && (match (a.k_msg, b.k_msg) with
       | Some m, Some m' -> Int.equal m.mseq m'.mseq && same m.origin m'.origin
       | None, None -> true
       | Some _, None | None, Some _ -> false)
    && String.equal a.k_kind b.k_kind

  let hash k =
    let mix h x = (h * 65599) + x in
    let h = mix (mix k.k_src.node k.k_src.inc) k.k_dst in
    match k.k_msg with
    | Some m -> mix (mix (mix h m.origin.node) m.origin.inc) m.mseq
    | None -> h
end)

let of_array (g_nodes : Recorder.entry array) =
  let n = Array.length g_nodes in
  let g_program = Array.make n (-1) and g_message = Array.make n (-1) in
  let g_barriers = Int_tbl.create 64 in
  let p_edges = ref 0 and m_edges = ref 0 and b_edges = ref 0 in
  (* last node per process incarnation *)
  let last_of = Event.Proc_tbl.create 64 in
  (* unconsumed wire copies per matching key, FIFO *)
  let pending = Copies.create 256 in
  (* first Propose node / all Flush nodes (newest first) per vid *)
  let propose_of : (Event.vid, int) Hashtbl.t = Hashtbl.create 16 in
  let flushes_of : (Event.vid, int list) Hashtbl.t = Hashtbl.create 16 in
  let rev_orphans = ref [] in
  let key k_kind k_src (dst : Event.proc) k_msg =
    { k_kind; k_src; k_dst = dst.node; k_msg }
  in
  let push_copy key i =
    match Copies.find_opt pending key with
    | Some q -> Queue.push i q
    | None ->
        let q = Queue.create () in
        Queue.push i q;
        Copies.add pending key q
  in
  (* The consumed copy's send node, or -1. *)
  let pop_copy key =
    match Copies.find_opt pending key with
    | Some q when not (Queue.is_empty q) -> Queue.pop q
    | Some _ | None -> -1
  in
  let message i j =
    g_message.(i) <- j;
    incr m_edges
  in
  let barriers i = function
    | [] -> ()
    | bs ->
        Int_tbl.replace g_barriers i bs;
        b_edges := !b_edges + List.length bs
  in
  let propose vid =
    match Hashtbl.find_opt propose_of vid with Some j -> [ j ] | None -> []
  in
  let flushes vid =
    match Hashtbl.find_opt flushes_of vid with Some l -> l | None -> []
  in
  for i = 0 to n - 1 do
    let event = g_nodes.(i).Recorder.event in
    (* program-order edge from the acting process's previous node *)
    (match actor event with
    | Some p ->
        (match Event.Proc_tbl.find_opt last_of p with
        | Some j ->
            g_program.(i) <- j;
            incr p_edges
        | None -> ());
        Event.Proc_tbl.replace last_of p i
    | None -> ());
    match event with
    | Event.Send { src; dst; kind; msg; _ } | Event.Dup { src; dst; kind; msg }
      ->
        push_copy (key kind src dst msg) i
    | Event.Recv { src; dst; kind; msg } ->
        let j = pop_copy (key kind src dst msg) in
        if j >= 0 then message i j else rev_orphans := i :: !rev_orphans
    | Event.Drop { src; dst; kind; reason; msg } ->
        (* Arrival-time drops consume the copy their send put on the wire;
           send-time drops never had one, and [pop_copy] finding none
           covers both a send-time reason and a truncated recording. *)
        if not (Event.send_time_drop reason) then begin
          let j = pop_copy (key kind src dst msg) in
          if j >= 0 then message i j
        end
    | Event.Propose { vid; _ } ->
        if not (Hashtbl.mem propose_of vid) then Hashtbl.replace propose_of vid i
    | Event.Flush { vid; _ } ->
        barriers i (propose vid);
        Hashtbl.replace flushes_of vid (i :: flushes vid)
    | Event.Install { vid; _ } -> barriers i (flushes vid @ propose vid)
    | _ -> ()
  done;
  {
    g_nodes;
    g_program;
    g_message;
    g_barriers;
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

let of_entries entries = of_array (Array.of_list entries)

(* The first backward edge in node order, each node's in [preds] order. *)
let validate t =
  let n = Array.length t.g_nodes in
  let rec check i =
    if i >= n then Ok ()
    else
      match List.find_opt (fun (j, _) -> j < 0 || j >= i) (preds t i) with
      | Some (j, _) ->
          (* With every predecessor earlier in the stream, stream order is a
             topological order, so the graph is acyclic. *)
          Error
            (Printf.sprintf "edge %d -> %d violates stream topological order"
               j i)
      | None -> check (i + 1)
  in
  check 0

(* --- live collector ------------------------------------------------------- *)

type collector = { mutable rev : Recorder.entry list }

let collector () = { rev = [] }

let observe c ~time event = c.rev <- { Recorder.time; event } :: c.rev

let collector_entries c = List.rev c.rev

(* [rev] is newest first: fill the node array from its end. *)
let of_collector c =
  match c.rev with
  | [] -> of_array [||]
  | newest :: _ ->
      let n = List.length c.rev in
      let nodes = Array.make n newest in
      List.iteri (fun k e -> nodes.(n - 1 - k) <- e) c.rev;
      of_array nodes
