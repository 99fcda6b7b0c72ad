(* The lineage fold: one pass over a materialized event stream producing
   per-message lifecycles, per-process view timelines, and the view
   graph.  Everything is keyed and sorted by the typed comparators of
   [Event], so two identical streams produce identical lineages. *)

module Hashtblx = Vs_util.Hashtblx
module Listx = Vs_util.Listx

(* ---------- per-message lifecycles ---------- *)

type what = Sent | Received | Dropped of string | Duplicated

type hop = {
  h_time : float;
  h_src : Event.proc;
  h_dst : Event.proc;
  h_kind : string;
  h_what : what;
}

type delivery = { d_proc : Event.proc; d_time : float; d_vid : Event.vid option }

(* Send-time drops (Event.send_time_drop) kill an attempt before it reaches
   the wire — no Send event is emitted for them.  Arrival drops ("dst-dead",
   "partition-inflight") kill a copy that a Send or Dup already put on the
   wire.  The split makes conservation exact:

     in_flight = copies - received - dropped_in_flight  >= 0           *)

type lifecycle = {
  l_msg : Event.msg;
  l_hops : hop list;  (* chronological *)
  l_copies : int;  (* envelopes put on the wire: sends + dups *)
  l_received : int;
  l_dups : int;
  l_predrops : (string * int) list;  (* reason -> count, sorted *)
  l_inflight_drops : (string * int) list;
  l_in_flight : int;
  l_deliveries : delivery list;  (* network arrivals, chronological *)
}

(* ---------- per-process timelines ---------- *)

type view_span = {
  vs_vid : Event.vid;
  vs_from : float;
  vs_until : float option;  (* next install or crash; None while open *)
  vs_members : Event.proc list;
}

type timeline = {
  tl_proc : Event.proc;
  tl_views : view_span list;  (* chronological *)
  tl_crashed_at : float option;
}

let view_at tl time =
  let rec go best = function
    | [] -> best
    | (sp : view_span) :: rest ->
        if sp.vs_from <= time then go (Some sp) rest else best
  in
  Option.map (fun sp -> sp.vs_vid) (go None tl.tl_views)

(* ---------- the view graph ---------- *)

type vnode = {
  n_vid : Event.vid;
  n_members : Event.proc list;  (* from the first install observed *)
  n_installers : Event.proc list;  (* sorted *)
  n_first_install : float;
  n_transfer : bool;  (* any Settle reported state transfer *)
  n_creation : string;  (* "none" unless a Settle reported otherwise *)
  n_merging : bool;
  n_clusters : int;  (* max S_R cluster count over Settle events *)
  n_eviews : int;  (* EVS e-view changes observed within the view *)
  n_max_subviews : int;
}

type vedge = {
  e_from : Event.vid;
  e_to : Event.vid;
  e_procs : Event.proc list;  (* survivors that made the transition *)
}

type graph = { vnodes : vnode list; vedges : vedge list }

let successors g vid =
  List.filter_map
    (fun e ->
      if Event.compare_vid e.e_from vid = 0 then Some e.e_to else None)
    g.vedges

let predecessors g vid =
  List.filter_map
    (fun e -> if Event.compare_vid e.e_to vid = 0 then Some e.e_from else None)
    g.vedges

let splits g =
  List.filter_map
    (fun n ->
      match successors g n.n_vid with
      | [] | [ _ ] -> None
      | vs -> Some (n.n_vid, vs))
    g.vnodes

let merges g =
  List.filter_map
    (fun n ->
      match predecessors g n.n_vid with
      | [] | [ _ ] -> None
      | vs -> Some (n.n_vid, vs))
    g.vnodes

(* ---------- the fold ---------- *)

type t = {
  lifecycles : lifecycle list;  (* sorted by message identity *)
  timelines : timeline list;  (* sorted by process *)
  graph : graph;
  events : int;
}

let lifecycle t m =
  List.find_opt (fun l -> Event.compare_msg l.l_msg m = 0) t.lifecycles

let timeline t p =
  List.find_opt (fun tl -> Event.compare_proc tl.tl_proc p = 0) t.timelines

(* Mutable per-view aggregate while folding. *)
type view_agg = {
  mutable a_members : Event.proc list;
  mutable a_installers : Event.proc list;
  mutable a_first : float;
  mutable a_transfer : bool;
  mutable a_creation : string;
  mutable a_merging : bool;
  mutable a_clusters : int;
  mutable a_eviews : int;
  mutable a_subviews : int;
}

let of_entries entries =
  let hops : (Event.msg, hop list ref) Hashtbl.t = Hashtbl.create 256 in
  let installs : (Event.proc, (float * Event.vid * Event.proc list) list ref)
      Hashtbl.t =
    Hashtbl.create 32
  in
  let crashes : (Event.proc, float) Hashtbl.t = Hashtbl.create 16 in
  let views : (Event.vid, view_agg) Hashtbl.t = Hashtbl.create 32 in
  let bucket tbl key =
    match Hashtbl.find_opt tbl key with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.add tbl key r;
        r
  in
  let view_agg vid time =
    match Hashtbl.find_opt views vid with
    | Some a -> a
    | None ->
        let a =
          {
            a_members = [];
            a_installers = [];
            a_first = time;
            a_transfer = false;
            a_creation = "none";
            a_merging = false;
            a_clusters = 0;
            a_eviews = 0;
            a_subviews = 0;
          }
        in
        Hashtbl.add views vid a;
        a
  in
  let hop time src dst kind what = function
    | None -> ()
    | Some m ->
        let r = bucket hops m in
        r := { h_time = time; h_src = src; h_dst = dst; h_kind = kind; h_what = what } :: !r
  in
  List.iter
    (fun (e : Recorder.entry) ->
      let time = e.time in
      match e.event with
      | Event.Send { src; dst; kind; msg; _ } -> hop time src dst kind Sent msg
      | Event.Recv { src; dst; kind; msg } -> hop time src dst kind Received msg
      | Event.Drop { src; dst; kind; reason; msg } ->
          hop time src dst kind (Dropped reason) msg
      | Event.Dup { src; dst; kind; msg } -> hop time src dst kind Duplicated msg
      | Event.Install { proc; vid; members; _ } ->
          let r = bucket installs proc in
          r := (time, vid, members) :: !r;
          let a = view_agg vid time in
          if a.a_members = [] then a.a_members <- members;
          if
            not
              (List.exists
                 (fun p -> Event.compare_proc p proc = 0)
                 a.a_installers)
          then a.a_installers <- proc :: a.a_installers;
          if time < a.a_first then a.a_first <- time
      | Event.Crash { proc } ->
          if not (Hashtbl.mem crashes proc) then Hashtbl.replace crashes proc time
      | Event.Settle { vid; transfer; creation; merging; clusters; _ } ->
          let a = view_agg vid time in
          a.a_transfer <- a.a_transfer || transfer;
          if not (String.equal creation "none") then a.a_creation <- creation;
          a.a_merging <- a.a_merging || merging;
          if clusters > a.a_clusters then a.a_clusters <- clusters
      | Event.Eview { vid; subviews; _ } ->
          let a = view_agg vid time in
          a.a_eviews <- a.a_eviews + 1;
          if subviews > a.a_subviews then a.a_subviews <- subviews
      | Event.Retransmit _ | Event.Backoff _ | Event.Suspect _
      | Event.Unsuspect _ | Event.Propose _ | Event.Flush _
      | Event.Mode_change _ | Event.Task_start _ | Event.Task_done _
      | Event.Partition _ | Event.Heal | Event.Corrupt _ | Event.Quarantine _
      | Event.Note _ ->
          ())
    entries;
  (* Timelines first: lifecycles need view_at for delivery views. *)
  let timelines =
    Hashtblx.sorted_bindings ~cmp:Event.compare_proc installs
    |> List.map (fun (proc, r) -> (proc, List.rev !r))
    |> List.map (fun (proc, inst) ->
           let crashed_at = Hashtbl.find_opt crashes proc in
           let rec spans = function
             | [] -> []
             | (t0, vid, members) :: rest ->
                 let until =
                   match rest with
                   | (t1, _, _) :: _ -> Some t1
                   | [] -> crashed_at
                 in
                 { vs_vid = vid; vs_from = t0; vs_until = until;
                   vs_members = members }
                 :: spans rest
           in
           { tl_proc = proc; tl_views = spans inst; tl_crashed_at = crashed_at })
  in
  (* Processes that only ever crashed (no installs recorded) still deserve a
     timeline so explain can say when they died. *)
  let timelines =
    let covered p =
      List.exists (fun tl -> Event.compare_proc tl.tl_proc p = 0) timelines
    in
    timelines
    @ (Hashtblx.sorted_bindings ~cmp:Event.compare_proc crashes
      |> List.filter_map (fun (p, time) ->
             if covered p then None
             else
               Some { tl_proc = p; tl_views = []; tl_crashed_at = Some time }))
    |> List.sort (fun a b -> Event.compare_proc a.tl_proc b.tl_proc)
  in
  let timeline_of p =
    List.find_opt (fun tl -> Event.compare_proc tl.tl_proc p = 0) timelines
  in
  let bump assoc reason =
    let n = match List.assoc_opt reason assoc with Some n -> n | None -> 0 in
    (reason, n + 1) :: List.remove_assoc reason assoc
  in
  let lifecycles =
    Hashtblx.sorted_bindings ~cmp:Event.compare_msg hops
    |> List.map (fun (m, r) ->
           let hs = List.rev !r in
           let copies, received, dups, predrops, inflight, deliveries =
             List.fold_left
               (fun (c, rc, d, pre, infl, dels) h ->
                 match h.h_what with
                 | Sent -> (c + 1, rc, d, pre, infl, dels)
                 | Duplicated -> (c + 1, rc, d + 1, pre, infl, dels)
                 | Received ->
                     let vid =
                       match timeline_of h.h_dst with
                       | Some tl -> view_at tl h.h_time
                       | None -> None
                     in
                     ( c, rc + 1, d, pre, infl,
                       { d_proc = h.h_dst; d_time = h.h_time; d_vid = vid }
                       :: dels )
                 | Dropped reason ->
                     if Event.send_time_drop reason then
                       (c, rc, d, bump pre reason, infl, dels)
                     else (c, rc, d, pre, bump infl reason, dels))
               (0, 0, 0, [], [], []) hs
           in
           let sort_counts l =
             List.sort (fun (a, _) (b, _) -> String.compare a b) l
           in
           {
             l_msg = m;
             l_hops = hs;
             l_copies = copies;
             l_received = received;
             l_dups = dups;
             l_predrops = sort_counts predrops;
             l_inflight_drops = sort_counts inflight;
             l_in_flight =
               copies - received
               - List.fold_left (fun a (_, n) -> a + n) 0 inflight;
             l_deliveries = List.rev deliveries;
           })
  in
  (* Edges: consecutive installs per process, survivors unioned per edge. *)
  let edge_tbl : (Event.vid * Event.vid, Event.proc list ref) Hashtbl.t =
    Hashtbl.create 32
  in
  List.iter
    (fun tl ->
      let rec go = function
        | a :: (b :: _ as rest) ->
            let r = bucket edge_tbl (a.vs_vid, b.vs_vid) in
            r := tl.tl_proc :: !r;
            go rest
        | [ _ ] | [] -> ()
      in
      go tl.tl_views)
    timelines;
  let compare_edge (f1, t1) (f2, t2) =
    match Event.compare_vid f1 f2 with 0 -> Event.compare_vid t1 t2 | c -> c
  in
  let vedges =
    Hashtblx.sorted_bindings ~cmp:compare_edge edge_tbl
    |> List.map (fun ((f, t_), procs) ->
           {
             e_from = f;
             e_to = t_;
             e_procs = Listx.sorted_set ~cmp:Event.compare_proc !procs;
           })
  in
  let vnodes =
    Hashtblx.sorted_bindings ~cmp:Event.compare_vid views
    |> List.map (fun (vid, a) ->
           {
             n_vid = vid;
             n_members = a.a_members;
             n_installers =
               Listx.sorted_set ~cmp:Event.compare_proc a.a_installers;
             n_first_install = a.a_first;
             n_transfer = a.a_transfer;
             n_creation = a.a_creation;
             n_merging = a.a_merging;
             n_clusters = a.a_clusters;
             n_eviews = a.a_eviews;
             n_max_subviews = a.a_subviews;
           })
  in
  {
    lifecycles;
    timelines;
    graph = { vnodes; vedges };
    events = List.length entries;
  }

(* ---------- rendering ---------- *)

let counts_to_string l =
  String.concat ", "
    (List.map (fun (reason, n) -> Printf.sprintf "%s x%d" reason n) l)

let lifecycle_summary l =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "%s: %d on wire (%d send + %d dup), %d received"
       (Event.msg_to_string l.l_msg) l.l_copies (l.l_copies - l.l_dups)
       l.l_dups l.l_received);
  if l.l_inflight_drops <> [] then
    Buffer.add_string b
      (Printf.sprintf ", lost in flight: %s" (counts_to_string l.l_inflight_drops));
  if l.l_predrops <> [] then
    Buffer.add_string b
      (Printf.sprintf ", killed at send: %s" (counts_to_string l.l_predrops));
  Buffer.add_string b (Printf.sprintf ", %d in flight at end" l.l_in_flight);
  (match l.l_deliveries with
  | [] -> ()
  | ds ->
      Buffer.add_string b "; arrived at ";
      Buffer.add_string b
        (String.concat ", "
           (List.map
              (fun d ->
                Printf.sprintf "%s@%s"
                  (Event.proc_to_string d.d_proc)
                  (match d.d_vid with
                  | Some v -> Event.vid_to_string v
                  | None -> "?"))
              ds)));
  Buffer.contents b

(* Graph exports.  Node identifiers are sanitized vid strings; labels carry
   the Section 4 settle classification and Section 6 subview structure. *)

let node_id vid =
  String.map
    (fun c -> match c with '@' | '.' -> '_' | c -> c)
    (Event.vid_to_string vid)

let node_label n =
  let base =
    Printf.sprintf "%s {%s}"
      (Event.vid_to_string n.n_vid)
      (String.concat "," (List.map Event.proc_to_string n.n_members))
  in
  let marks =
    (if n.n_transfer then [ "transfer" ] else [])
    @ (if String.equal n.n_creation "none" then [] else [ n.n_creation ])
    @ (if n.n_merging then [ "merging" ] else [])
    @ (if n.n_clusters > 1 then
         [ Printf.sprintf "clusters=%d" n.n_clusters ]
       else [])
    @
    if n.n_eviews > 0 then
      [ Printf.sprintf "eviews=%d sv<=%d" n.n_eviews n.n_max_subviews ]
    else []
  in
  match marks with
  | [] -> base
  | _ -> base ^ " [" ^ String.concat " " marks ^ "]"

let edge_label e =
  String.concat "," (List.map Event.proc_to_string e.e_procs)

let to_mermaid g =
  let b = Buffer.create 512 in
  Buffer.add_string b "graph TD\n";
  List.iter
    (fun n ->
      Buffer.add_string b
        (Printf.sprintf "  %s[\"%s\"]\n" (node_id n.n_vid) (node_label n)))
    g.vnodes;
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "  %s -->|%s| %s\n" (node_id e.e_from) (edge_label e)
           (node_id e.e_to)))
    g.vedges;
  Buffer.contents b

let to_dot g =
  let b = Buffer.create 512 in
  Buffer.add_string b "digraph views {\n  rankdir=TB;\n  node [shape=box];\n";
  List.iter
    (fun n ->
      Buffer.add_string b
        (Printf.sprintf "  \"%s\" [label=\"%s\"];\n" (node_id n.n_vid)
           (node_label n)))
    g.vnodes;
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "  \"%s\" -> \"%s\" [label=\"%s\"];\n"
           (node_id e.e_from) (node_id e.e_to) (edge_label e)))
    g.vedges;
  Buffer.add_string b "}\n";
  Buffer.contents b
