(* Failure attribution: turn a structured oracle violation into a minimal
   causal slice of the event stream plus derived lineage notes, rendered as
   deterministic text and canonical JSON.  Everything here is a pure function
   of (violation, stream), so explanations are byte-stable across runs —
   the corpus's committed .explain.txt artifacts pin that down. *)

type property =
  | Agreement
  | Uniqueness
  | Integrity
  | Fifo
  | Total_order
  | Evs_total_order
  | Evs_structure
  | Evs_invariant
  | Stabilization

let property_key = function
  | Agreement -> "agreement"
  | Uniqueness -> "uniqueness"
  | Integrity -> "integrity"
  | Fifo -> "fifo"
  | Total_order -> "total-order"
  | Evs_total_order -> "evs-total-order"
  | Evs_structure -> "evs-structure"
  | Evs_invariant -> "evs-invariant"
  | Stabilization -> "stabilization"

let property_title = function
  | Agreement -> "agreement (Property 2.1)"
  | Uniqueness -> "uniqueness (Property 2.2)"
  | Integrity -> "integrity (Property 2.3)"
  | Fifo -> "per-sender fifo order"
  | Total_order -> "total order"
  | Evs_total_order -> "EVS total order (Property 6.1)"
  | Evs_structure -> "EVS view structure (Property 6.3)"
  | Evs_invariant -> "EVS run invariant"
  | Stabilization -> "stabilization (bounded recovery from transient faults)"

type violation = {
  property : property;
  msg : Event.msg option;
  procs : Event.proc list;
  vids : Event.vid list;
  detail : string;
}

type explanation = {
  violation : violation;
  notes : string list;
  slice : Recorder.entry list;
}

(* The slice: every data-path event of the offending message, the membership
   protocol traffic of the views involved, the view-protocol activity of the
   processes involved, and any fault events inside the window those events
   span.  This is the evidence set the oracle's verdict is a function of. *)
let slice_of ~entries (v : violation) =
  let open Query in
  let msg_q =
    match v.msg with Some m -> about_msg m | None -> none
  in
  let membership_q =
    any (List.map mentions_vid v.vids)
    &&& any (List.map of_type [ "propose"; "flush"; "install"; "settle"; "eview" ])
  in
  let proc_q =
    any (List.map mentions_proc v.procs)
    &&& any (List.map of_type [ "install"; "mode"; "crash" ])
  in
  let core = msg_q ||| membership_q ||| proc_q in
  let relevant = run core entries in
  match relevant with
  | [] -> []
  | first :: _ ->
      let t0 = first.Recorder.time in
      let t1 =
        List.fold_left (fun acc e -> Float.max acc e.Recorder.time) t0 relevant
      in
      let faults_q =
        any (List.map of_type [ "crash"; "partition"; "heal"; "corrupt" ])
        &&& between ~t0 ~t1
      in
      run (core ||| faults_q) entries

let notes_of ~(lineage : Lineage.t) (v : violation) =
  let msg_notes =
    match v.msg with
    | None -> []
    | Some m -> (
        match Lineage.lifecycle lineage m with
        | Some l -> [ Lineage.lifecycle_summary l ]
        | None ->
            [
              Printf.sprintf
                "%s: no data-path events recorded (stream below Full level?)"
                (Event.msg_to_string m);
            ])
  in
  let vid_notes =
    List.filter_map
      (fun vid ->
        List.find_opt
          (fun (n : Lineage.vnode) -> Event.compare_vid n.n_vid vid = 0)
          lineage.graph.vnodes
        |> Option.map (fun (n : Lineage.vnode) ->
               Printf.sprintf "%s: members {%s}, installed by {%s} from %.4f%s"
                 (Event.vid_to_string vid)
                 (String.concat ","
                    (List.map Event.proc_to_string n.n_members))
                 (String.concat ","
                    (List.map Event.proc_to_string n.n_installers))
                 n.n_first_install
                 (if n.n_clusters > 1 then
                    Printf.sprintf " (settled with %d clusters)" n.n_clusters
                  else "")))
      v.vids
  in
  let proc_notes =
    List.filter_map
      (fun p ->
        match Lineage.timeline lineage p with
        | None -> None
        | Some tl ->
            let views =
              match tl.Lineage.tl_views with
              | [] -> "no views installed"
              | vs ->
                  Printf.sprintf "views %s"
                    (String.concat " -> "
                       (List.map
                          (fun (sp : Lineage.view_span) ->
                            Event.vid_to_string sp.vs_vid)
                          vs))
            in
            let crash =
              match tl.Lineage.tl_crashed_at with
              | Some t -> Printf.sprintf ", crashed at %.4f" t
              | None -> ""
            in
            Some
              (Printf.sprintf "%s: %s%s" (Event.proc_to_string p) views crash))
      v.procs
  in
  msg_notes @ vid_notes @ proc_notes

let explain ~lineage ~entries v =
  { violation = v; notes = notes_of ~lineage v; slice = slice_of ~entries v }

(* ---------- rendering ---------- *)

let violation_header (v : violation) =
  let parts =
    [ Printf.sprintf "violated: %s" (property_title v.property) ]
    @ (match v.msg with
      | Some m -> [ Printf.sprintf "message: %s" (Event.msg_to_string m) ]
      | None -> [])
    @ (match v.procs with
      | [] -> []
      | ps ->
          [
            Printf.sprintf "processes: %s"
              (String.concat ", " (List.map Event.proc_to_string ps));
          ])
    @
    match v.vids with
    | [] -> []
    | vs ->
        [
          Printf.sprintf "views: %s"
            (String.concat ", " (List.map Event.vid_to_string vs));
        ]
  in
  String.concat "\n  " parts

let to_text (e : explanation) =
  let b = Buffer.create 512 in
  Buffer.add_string b (violation_header e.violation);
  Buffer.add_string b (Printf.sprintf "\n  detail: %s\n" e.violation.detail);
  List.iter (fun n -> Buffer.add_string b ("  note: " ^ n ^ "\n")) e.notes;
  Buffer.add_string b
    (Printf.sprintf "  causal slice (%d events):\n" (List.length e.slice));
  List.iter
    (fun (en : Recorder.entry) ->
      Buffer.add_string b
        (Printf.sprintf "    %.4f %-5s %s\n" en.time
           (Event.component en.event)
           (Event.render en.event)))
    e.slice;
  Buffer.contents b

let violation_json (v : violation) =
  Json.Obj
    ([
       ("property", Json.Str (property_key v.property));
       ("title", Json.Str (property_title v.property));
     ]
    @ (match v.msg with
      | Some m -> [ ("msg", Json.Str (Event.msg_to_string m)) ]
      | None -> [])
    @ [
        ( "procs",
          Json.Arr
            (List.map (fun p -> Json.Str (Event.proc_to_string p)) v.procs) );
        ( "vids",
          Json.Arr
            (List.map (fun v -> Json.Str (Event.vid_to_string v)) v.vids) );
        ("detail", Json.Str v.detail);
      ])

let to_json (e : explanation) =
  Json.Obj
    [
      ("violation", violation_json e.violation);
      ("notes", Json.Arr (List.map (fun n -> Json.Str n) e.notes));
      ( "slice",
        Json.Arr
          (List.map
             (fun en ->
               let line = Export.jsonl_of_entries [ en ] in
               match Json.of_string line with
               | Ok v -> v
               | Error err ->
                   invalid_arg ("Explain.to_json: " ^ err ^ ": " ^ line))
             e.slice) );
    ]
