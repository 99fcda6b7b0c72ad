(* Exporters over a recorded event stream: deterministic JSONL (one object per
   line, fixed key order) and Chrome trace_event JSON for Perfetto.  Explain
   embeds a slice entry by parsing its JSONL line back. *)

(* --- JSONL --------------------------------------------------------------- *)

(* The one statement of the per-event field schema.  Each entry is appended
   straight into one buffer: the [t]/[c]/[ev] envelope, then the payload
   keys in a fixed order.  The optional correlation identity renders last,
   and only when present, so pre-identity streams stay byte-identical.  A
   run of entries at one time formats that time once.  At 128 bytes an
   entry, above the 95 a Full-level line averages, a full-length
   campaign's 2 MB export fills one block without growing it.

   Send, Recv, Drop and Dup make up most Full-level lines.  For them the
   envelope and the [src] key are one constant, and every later key is one
   constant with the quotes around it: the same bytes as the general path
   writes for the other events, in fewer appends. *)
let jsonl_of_entries entries =
  let b = Buffer.create (128 * List.length entries) in
  let key k =
    Buffer.add_string b ",\"";
    Buffer.add_string b k;
    Buffer.add_string b "\":"
  in
  let str k s = key k; Json.escape_string b s in
  let int k i = key k; Json.add_int b i in
  let bool k v = key k; Buffer.add_string b (if v then "true" else "false") in
  let float k f = key k; Buffer.add_string b (Json.float_repr f) in
  let quote add v = Buffer.add_char b '"'; add b v; Buffer.add_char b '"' in
  let proc k p = key k; quote Event.add_proc p in
  let vid k v = key k; quote Event.add_vid v in
  let msg =
    Option.iter (fun m ->
        Buffer.add_string b ",\"msg\":\"";
        Event.add_msg b m;
        Buffer.add_char b '"')
  in
  let array add items =
    Buffer.add_char b '[';
    List.iteri (fun i x -> if i > 0 then Buffer.add_char b ','; add x) items;
    Buffer.add_char b ']'
  in
  let members k ms = key k; array (quote Event.add_proc) ms in
  (* A wire event's envelope and [src], then [dst] and [kind]. *)
  let wire head src dst kind =
    Buffer.add_string b head;
    Event.add_proc b src;
    Buffer.add_string b "\",\"dst\":\"";
    Event.add_proc b dst;
    Buffer.add_string b "\",\"kind\":";
    Json.escape_string b kind
  in
  (* The last time's bits (0L is 0.0) and text; compared bit for bit, so
     -0.0 never reuses the text of 0.0. *)
  let bits = ref 0L and time = ref "0.0" in
  List.iter
    (fun (e : Recorder.entry) ->
      let t = Int64.bits_of_float e.time in
      if not (Int64.equal t !bits) then begin
        bits := t;
        time := Json.float_repr e.time
      end;
      Buffer.add_string b "{\"t\":";
      Buffer.add_string b !time;
      (match e.event with
      | Send _ | Recv _ | Drop _ | Dup _ -> () (* [wire] writes theirs *)
      | ev ->
          str "c" (Event.component ev);
          str "ev" (Event.type_name ev));
      (match e.event with
      | Send { src; dst; kind; bytes; msg = m } ->
          wire ",\"c\":\"net\",\"ev\":\"send\",\"src\":\"" src dst kind;
          Buffer.add_string b ",\"bytes\":";
          Json.add_int b bytes;
          msg m
      | Recv { src; dst; kind; msg = m } ->
          wire ",\"c\":\"net\",\"ev\":\"recv\",\"src\":\"" src dst kind;
          msg m
      | Dup { src; dst; kind; msg = m } ->
          wire ",\"c\":\"net\",\"ev\":\"dup\",\"src\":\"" src dst kind;
          msg m
      | Drop { src; dst; kind; reason; msg = m } ->
          wire ",\"c\":\"net\",\"ev\":\"drop\",\"src\":\"" src dst kind;
          Buffer.add_string b ",\"reason\":";
          Json.escape_string b reason;
          msg m
      | Retransmit { proc = p; origin; count; peer } ->
          proc "proc" p; proc "origin" origin; int "count" count;
          bool "peer" peer
      | Backoff { proc = p; dst; attempt; delay } ->
          proc "proc" p; proc "dst" dst; int "attempt" attempt;
          float "delay" delay
      | Suspect { proc = p; peer } | Unsuspect { proc = p; peer } ->
          proc "proc" p; proc "peer" peer
      | Propose { proc = p; vid = v; members = ms } ->
          proc "proc" p; vid "vid" v; members "members" ms
      | Flush { proc = p; vid = v; seen } ->
          proc "proc" p; vid "vid" v; int "seen" seen
      | Install { proc = p; vid = v; members = ms; sync } ->
          proc "proc" p; vid "vid" v; members "members" ms; int "sync" sync
      | Eview { proc = p; vid = v; eseq; cause; subviews; svsets } ->
          proc "proc" p; vid "vid" v; int "eseq" eseq; str "cause" cause;
          int "subviews" subviews; int "svsets" svsets
      | Mode_change { proc = p; from_mode; into_mode; cause } ->
          proc "proc" p; str "from" from_mode; str "to" into_mode;
          str "cause" cause
      | Settle { proc = p; vid = v; transfer; creation; merging; clusters } ->
          proc "proc" p; vid "vid" v; bool "transfer" transfer;
          str "creation" creation; bool "merging" merging;
          int "clusters" clusters
      | Task_start { proc = p; task; vid = v }
      | Task_done { proc = p; task; vid = v } ->
          proc "proc" p; str "task" task; vid "vid" v
      | Crash { proc = p } -> proc "proc" p
      | Partition { components } ->
          key "components";
          array (array (Json.add_int b)) components
      | Heal -> ()
      | Corrupt { proc = p; field; detail } ->
          proc "proc" p; str "field" field; str "detail" detail
      | Quarantine { bound; opened; cut; views; quarantined } ->
          int "bound" bound; float "opened" opened; float "cut" cut;
          int "views" views; int "quarantined" quarantined
      | Note { message; _ } -> str "msg" message);
      Buffer.add_string b "}\n")
    entries;
  Buffer.contents b

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
