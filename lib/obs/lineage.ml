(* The lineage fold: one pass over a materialized event stream producing
   per-message lifecycles, per-process view timelines, and the view
   graph.  Everything is keyed and sorted by the typed comparators of
   [Event], so two identical streams produce identical lineages. *)

module Hashtblx = Vs_util.Hashtblx
module Listx = Vs_util.Listx

(* ---------- per-message lifecycles ---------- *)

type delivery = { d_proc : Event.proc; d_vid : Event.vid option }

(* Send-time drops (Event.send_time_drop) kill an attempt before it reaches
   the wire — no Send event is emitted for them.  Arrival drops ("dst-dead",
   "partition-inflight") kill a copy that a Send or Dup already put on the
   wire.  The split makes conservation exact:

     in_flight = copies - received - dropped_in_flight  >= 0           *)

type lifecycle = {
  l_msg : Event.msg;
  l_copies : int;  (* envelopes put on the wire: sends + dups *)
  l_received : int;
  l_dups : int;
  l_predrops : (string * int) list;  (* reason -> count, sorted *)
  l_inflight_drops : (string * int) list;
  l_in_flight : int;
  l_deliveries : delivery list;  (* network arrivals, chronological *)
}

(* ---------- per-process timelines ---------- *)

type view_span = { vs_vid : Event.vid; vs_from : float }

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

(* Views at one end of more than one edge, with the other ends in edge
   order.  Edges are sorted by (from, to), so both lists come out sorted. *)
let fanout ~at ~other g =
  Listx.group_by ~key:at ~cmp_key:Event.compare_vid g.vedges
  |> List.filter_map (fun (vid, es) ->
         match es with
         | [] | [ _ ] -> None
         | es -> Some (vid, List.map other es))

let splits = fanout ~at:(fun e -> e.e_from) ~other:(fun e -> e.e_to)

let merges = fanout ~at:(fun e -> e.e_to) ~other:(fun e -> e.e_from)

(* ---------- the fold ---------- *)

type t = {
  lifecycles : lifecycle list;  (* sorted by message identity *)
  timelines : timeline list;  (* sorted by process *)
  graph : graph;
}

let lifecycle t m =
  List.find_opt (fun l -> Event.compare_msg l.l_msg m = 0) t.lifecycles

let timeline t p =
  List.find_opt (fun tl -> Event.compare_proc tl.tl_proc p = 0) t.timelines

(* Mutable per-message tally while folding; arrivals are resolved to the
   receiver's view once every install is known. *)
type tally = {
  mutable copies : int;
  mutable received : int;
  mutable dups : int;
  mutable predrops : (string * int) list;
  mutable inflight : (string * int) list;
  mutable rev_arrivals : (Event.proc * float) list;
}

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

(* A timeline mark: what happened to a process at a time. *)
type mark = Installed of Event.vid | Crashed

let bump assoc reason =
  let n = match List.assoc_opt reason assoc with Some n -> n | None -> 0 in
  (reason, n + 1) :: List.remove_assoc reason assoc

let of_entries entries =
  let tallies : tally Event.Msg_tbl.t = Event.Msg_tbl.create 256 in
  let views : (Event.vid, view_agg) Hashtbl.t = Hashtbl.create 32 in
  let rev_marks = ref [] in
  let tally m =
    match Event.Msg_tbl.find_opt tallies m with
    | Some t -> t
    | None ->
        let t =
          {
            copies = 0;
            received = 0;
            dups = 0;
            predrops = [];
            inflight = [];
            rev_arrivals = [];
          }
        in
        Event.Msg_tbl.add tallies m t;
        t
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
  List.iter
    (fun (e : Recorder.entry) ->
      let time = e.time in
      match e.event with
      | Event.Send { msg = Some m; _ } ->
          let t = tally m in
          t.copies <- t.copies + 1
      | Event.Dup { msg = Some m; _ } ->
          let t = tally m in
          t.copies <- t.copies + 1;
          t.dups <- t.dups + 1
      | Event.Recv { dst; msg = Some m; _ } ->
          let t = tally m in
          t.received <- t.received + 1;
          t.rev_arrivals <- (dst, time) :: t.rev_arrivals
      | Event.Drop { reason; msg = Some m; _ } ->
          let t = tally m in
          if Event.send_time_drop reason then
            t.predrops <- bump t.predrops reason
          else t.inflight <- bump t.inflight reason
      | Event.Install { proc; vid; members; _ } ->
          rev_marks := (proc, time, Installed vid) :: !rev_marks;
          let a = view_agg vid time in
          if a.a_members = [] then a.a_members <- members;
          a.a_installers <- proc :: a.a_installers;
          if time < a.a_first then a.a_first <- time
      | Event.Crash { proc } -> rev_marks := (proc, time, Crashed) :: !rev_marks
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
      | Event.Send { msg = None; _ }
      | Event.Dup { msg = None; _ }
      | Event.Recv { msg = None; _ }
      | Event.Drop { msg = None; _ }
      | Event.Retransmit _ | Event.Backoff _ | Event.Suspect _
      | Event.Unsuspect _ | Event.Propose _ | Event.Flush _
      | Event.Mode_change _ | Event.Task_start _ | Event.Task_done _
      | Event.Partition _ | Event.Heal | Event.Corrupt _ | Event.Quarantine _
      | Event.Note _ ->
          ())
    entries;
  (* One timeline per process that installed or crashed, its installs in
     stream order and its first crash. *)
  let timelines =
    Listx.group_by
      ~key:(fun (p, _, _) -> p)
      ~cmp_key:Event.compare_proc (List.rev !rev_marks)
    |> List.map (fun (proc, marks) ->
           {
             tl_proc = proc;
             tl_views =
               List.filter_map
                 (function
                   | _, vs_from, Installed vs_vid -> Some { vs_vid; vs_from }
                   | _, _, Crashed -> None)
                 marks;
             tl_crashed_at =
               List.find_map
                 (function _, t, Crashed -> Some t | _, _, Installed _ -> None)
                 marks;
           })
  in
  let view_of p time =
    Option.bind
      (List.find_opt (fun tl -> Event.compare_proc tl.tl_proc p = 0) timelines)
      (fun tl -> view_at tl time)
  in
  let sort_counts l = List.sort (fun (a, _) (b, _) -> String.compare a b) l in
  let lifecycles =
    Event.Msg_tbl.sorted_bindings tallies
    |> List.map (fun (m, t) ->
           {
             l_msg = m;
             l_copies = t.copies;
             l_received = t.received;
             l_dups = t.dups;
             l_predrops = sort_counts t.predrops;
             l_inflight_drops = sort_counts t.inflight;
             l_in_flight =
               t.copies - t.received
               - List.fold_left (fun a (_, n) -> a + n) 0 t.inflight;
             l_deliveries =
               List.rev_map
                 (fun (d_proc, time) -> { d_proc; d_vid = view_of d_proc time })
                 t.rev_arrivals;
           })
  in
  (* Edges: consecutive installs per process, survivors unioned per edge. *)
  let compare_edge (f1, t1) (f2, t2) =
    match Event.compare_vid f1 f2 with 0 -> Event.compare_vid t1 t2 | c -> c
  in
  let vedges =
    List.concat_map
      (fun tl ->
        let rec steps = function
          | a :: (b :: _ as rest) ->
              ((a.vs_vid, b.vs_vid), tl.tl_proc) :: steps rest
          | [ _ ] | [] -> []
        in
        steps tl.tl_views)
      timelines
    |> Listx.group_by ~key:fst ~cmp_key:compare_edge
    |> List.map (fun ((e_from, e_to), steps) ->
           {
             e_from;
             e_to;
             e_procs =
               Listx.sorted_set ~cmp:Event.compare_proc (List.map snd steps);
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
  { lifecycles; timelines; graph = { vnodes; vedges } }

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
