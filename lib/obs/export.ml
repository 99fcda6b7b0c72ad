(* Exporters over a recorded event stream: deterministic JSONL (one object per
   line, fixed key order) and Chrome trace_event JSON for Perfetto.  Both are
   write-only; nothing in the repository parses a stream back. *)

let proc_json p = Json.Str (Event.proc_to_string p)

let vid_json v = Json.Str (Event.vid_to_string v)

let members_json ms = Json.Arr (List.map proc_json ms)

(* The optional correlation identity always renders last, and only when
   present, so pre-identity streams stay byte-identical. *)
let with_msg fields = function
  | None -> fields
  | Some m -> fields @ [ ("msg", Json.Str (Event.msg_to_string m)) ]

(* Payload fields, in the fixed order the schema guarantees. *)
let fields_of_event (ev : Event.t) : (string * Json.t) list =
  match ev with
  | Send { src; dst; kind; bytes; msg } ->
      with_msg
        [
          ("src", proc_json src); ("dst", proc_json dst);
          ("kind", Json.Str kind); ("bytes", Json.Int bytes);
        ]
        msg
  | Recv { src; dst; kind; msg } ->
      with_msg
        [ ("src", proc_json src); ("dst", proc_json dst); ("kind", Json.Str kind) ]
        msg
  | Drop { src; dst; kind; reason; msg } ->
      with_msg
        [
          ("src", proc_json src); ("dst", proc_json dst);
          ("kind", Json.Str kind); ("reason", Json.Str reason);
        ]
        msg
  | Dup { src; dst; kind; msg } ->
      with_msg
        [ ("src", proc_json src); ("dst", proc_json dst); ("kind", Json.Str kind) ]
        msg
  | Retransmit { proc; origin; count; peer } ->
      [
        ("proc", proc_json proc); ("origin", proc_json origin);
        ("count", Json.Int count); ("peer", Json.Bool peer);
      ]
  | Backoff { proc; dst; attempt; delay } ->
      [
        ("proc", proc_json proc); ("dst", proc_json dst);
        ("attempt", Json.Int attempt); ("delay", Json.Float delay);
      ]
  | Suspect { proc; peer } ->
      [ ("proc", proc_json proc); ("peer", proc_json peer) ]
  | Unsuspect { proc; peer } ->
      [ ("proc", proc_json proc); ("peer", proc_json peer) ]
  | Propose { proc; vid; members } ->
      [
        ("proc", proc_json proc); ("vid", vid_json vid);
        ("members", members_json members);
      ]
  | Flush { proc; vid; seen } ->
      [ ("proc", proc_json proc); ("vid", vid_json vid); ("seen", Json.Int seen) ]
  | Install { proc; vid; members; sync } ->
      [
        ("proc", proc_json proc); ("vid", vid_json vid);
        ("members", members_json members); ("sync", Json.Int sync);
      ]
  | Eview { proc; vid; eseq; cause; subviews; svsets } ->
      [
        ("proc", proc_json proc); ("vid", vid_json vid);
        ("eseq", Json.Int eseq); ("cause", Json.Str cause);
        ("subviews", Json.Int subviews); ("svsets", Json.Int svsets);
      ]
  | Mode_change { proc; from_mode; into_mode; cause } ->
      [
        ("proc", proc_json proc); ("from", Json.Str from_mode);
        ("to", Json.Str into_mode); ("cause", Json.Str cause);
      ]
  | Settle { proc; vid; transfer; creation; merging; clusters } ->
      [
        ("proc", proc_json proc); ("vid", vid_json vid);
        ("transfer", Json.Bool transfer); ("creation", Json.Str creation);
        ("merging", Json.Bool merging); ("clusters", Json.Int clusters);
      ]
  | Task_start { proc; task; vid } ->
      [ ("proc", proc_json proc); ("task", Json.Str task); ("vid", vid_json vid) ]
  | Task_done { proc; task; vid } ->
      [ ("proc", proc_json proc); ("task", Json.Str task); ("vid", vid_json vid) ]
  | Crash { proc } -> [ ("proc", proc_json proc) ]
  | Partition { components } ->
      [
        ( "components",
          Json.Arr
            (List.map
               (fun nodes -> Json.Arr (List.map (fun n -> Json.Int n) nodes))
               components) );
      ]
  | Heal -> []
  | Corrupt { proc; field; detail } ->
      [
        ("proc", proc_json proc); ("field", Json.Str field);
        ("detail", Json.Str detail);
      ]
  | Quarantine { bound; opened; cut; views; quarantined } ->
      [
        ("bound", Json.Int bound); ("opened", Json.Float opened);
        ("cut", Json.Float cut); ("views", Json.Int views);
        ("quarantined", Json.Int quarantined);
      ]
  | Note { message; _ } -> [ ("msg", Json.Str message) ]

(* --- JSONL --------------------------------------------------------------- *)

let jsonl_of_entry (e : Recorder.entry) =
  Json.to_string
    (Json.Obj
       (("t", Json.Float e.time)
       :: ("c", Json.Str (Event.component e.event))
       :: ("ev", Json.Str (Event.type_name e.event))
       :: fields_of_event e.event))

let jsonl_of_entries entries =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (jsonl_of_entry e);
      Buffer.add_char buf '\n')
    entries;
  Buffer.contents buf

(* --- Chrome trace_event -------------------------------------------------- *)

(* One pid for the whole cluster, one tid lane per node.  View installs,
   e-views, mode changes, suspicions, and faults render as instants; state
   transfer tasks and the flush->install window render as complete spans.
   Raw send/recv traffic is deliberately left out of the Chrome view (it
   drowns the lanes); use the JSONL stream for packet-level digging. *)
let chrome_of_entries entries =
  let us t = Json.Float (t *. 1e6) in
  let out = ref [] in
  let push ev = out := ev :: !out in
  let seen_nodes = Hashtbl.create 16 in
  let note_node (p : Event.proc) =
    if not (Hashtbl.mem seen_nodes p.node) then
      Hashtbl.replace seen_nodes p.node ()
  in
  let instant ~time ~(proc : Event.proc) ~name ~cat =
    note_node proc;
    push
      (Json.Obj
         [
           ("name", Json.Str name); ("cat", Json.Str cat); ("ph", Json.Str "i");
           ("ts", us time); ("pid", Json.Int 1); ("tid", Json.Int proc.node);
           ("s", Json.Str "t");
         ])
  in
  let span ~start ~stop ~(proc : Event.proc) ~name ~cat =
    note_node proc;
    push
      (Json.Obj
         [
           ("name", Json.Str name); ("cat", Json.Str cat); ("ph", Json.Str "X");
           ("ts", us start); ("dur", Json.Float ((stop -. start) *. 1e6));
           ("pid", Json.Int 1); ("tid", Json.Int proc.node);
         ])
  in
  let cluster_tid = 999 in
  let cluster_instant ~time ~name =
    push
      (Json.Obj
         [
           ("name", Json.Str name); ("cat", Json.Str "fault");
           ("ph", Json.Str "i"); ("ts", us time); ("pid", Json.Int 1);
           ("tid", Json.Int cluster_tid); ("s", Json.Str "p");
         ])
  in
  (* flush windows open at the member's own flush-ack *)
  let anchors = Stall.tracker () in
  let open_task : (Event.proc * string, float) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (e : Recorder.entry) ->
      let time = e.time in
      let install = Stall.step anchors ~time e.event in
      match e.event with
      | Event.Install { proc; vid; sync; _ } ->
          (match install with
          | Some { Stall.i_own_flush = Some (start, _); _ } ->
              span ~start ~stop:time ~proc
                ~name:("flush " ^ Event.vid_to_string vid)
                ~cat:"gms"
          | Some _ | None -> ());
          instant ~time ~proc
            ~name:
              (Printf.sprintf "install %s (+%d sync)" (Event.vid_to_string vid)
                 sync)
            ~cat:"gms"
      | Event.Propose { proc; vid; _ } ->
          instant ~time ~proc
            ~name:("propose " ^ Event.vid_to_string vid)
            ~cat:"gms"
      | Event.Eview { proc; vid; eseq; cause; _ } ->
          instant ~time ~proc
            ~name:
              (Printf.sprintf "eview %s#%d %s" (Event.vid_to_string vid) eseq
                 cause)
            ~cat:"evs"
      | Event.Mode_change { proc; from_mode; into_mode; cause } ->
          instant ~time ~proc
            ~name:(Printf.sprintf "mode %s->%s (%s)" from_mode into_mode cause)
            ~cat:"mode"
      | Event.Settle { proc; vid; clusters; _ } ->
          instant ~time ~proc
            ~name:
              (Printf.sprintf "settle %s clusters=%d" (Event.vid_to_string vid)
                 clusters)
            ~cat:"mode"
      | Event.Task_start { proc; task; _ } ->
          let key = (proc, task) in
          if not (Hashtbl.mem open_task key) then
            Hashtbl.replace open_task key time
      | Event.Task_done { proc; task; vid } ->
          let key = (proc, task) in
          (match Hashtbl.find_opt open_task key with
          | Some start ->
              Hashtbl.remove open_task key;
              span ~start ~stop:time ~proc
                ~name:(Printf.sprintf "%s %s" task (Event.vid_to_string vid))
                ~cat:"app"
          | None ->
              instant ~time ~proc
                ~name:(Printf.sprintf "%s done" task)
                ~cat:"app")
      | Event.Suspect { proc; peer } ->
          instant ~time ~proc
            ~name:("suspect " ^ Event.proc_to_string peer)
            ~cat:"fd"
      | Event.Unsuspect { proc; peer } ->
          instant ~time ~proc
            ~name:("trust " ^ Event.proc_to_string peer)
            ~cat:"fd"
      | Event.Crash { proc } ->
          instant ~time ~proc
            ~name:("crash " ^ Event.proc_to_string proc)
            ~cat:"fault"
      | Event.Partition _ -> cluster_instant ~time ~name:(Event.render e.event)
      | Event.Heal -> cluster_instant ~time ~name:"heal"
      | Event.Corrupt { proc; field; _ } ->
          instant ~time ~proc ~name:("corrupt " ^ field) ~cat:"fault"
      | Event.Quarantine _ -> cluster_instant ~time ~name:(Event.render e.event)
      | Event.Retransmit { proc; count; _ } ->
          instant ~time ~proc
            ~name:(Printf.sprintf "retransmit x%d" count)
            ~cat:"vsync"
      | Event.Flush _ | Event.Send _ | Event.Recv _ | Event.Drop _ | Event.Dup _
      | Event.Backoff _ | Event.Note _ ->
          ())
    entries;
  (* Unclosed task spans: surface their start as instants so they are not
     silently invisible.  Sorted by process, then task, for determinism
     (D2). *)
  let by_proc_task (p, a) (q, b) =
    match Event.compare_proc p q with 0 -> String.compare a b | c -> c
  in
  List.iter
    (fun ((proc, task), start) ->
      instant ~time:start ~proc ~name:(task ^ " start (unfinished)") ~cat:"app")
    (Vs_util.Hashtblx.sorted_bindings ~cmp:by_proc_task open_task);
  (* Metadata lanes, one per node plus the cluster lane. *)
  let meta =
    List.concat_map
      (fun node ->
        [
          Json.Obj
            [
              ("name", Json.Str "thread_name"); ("ph", Json.Str "M");
              ("pid", Json.Int 1); ("tid", Json.Int node);
              ( "args",
                Json.Obj [ ("name", Json.Str (Printf.sprintf "node %d" node)) ]
              );
            ];
        ])
      (Vs_util.Hashtblx.sorted_keys ~cmp:Int.compare seen_nodes)
    @ [
        Json.Obj
          [
            ("name", Json.Str "thread_name"); ("ph", Json.Str "M");
            ("pid", Json.Int 1); ("tid", Json.Int cluster_tid);
            ("args", Json.Obj [ ("name", Json.Str "cluster") ]);
          ];
        Json.Obj
          [
            ("name", Json.Str "process_name"); ("ph", Json.Str "M");
            ("pid", Json.Int 1);
            ("args", Json.Obj [ ("name", Json.Str "vs cluster") ]);
          ];
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.Arr (meta @ List.rev !out));
         ("displayTimeUnit", Json.Str "ms");
       ])
