(* Folded-stack and Perfetto rendering of critical paths (see flame.mli). *)

module Hashtblx = Vs_util.Hashtblx

(* Stack frames: view id, segment kind, owner ("p2" or "p0->p2").  Values
   are summed per stack across every install path of the view, then printed
   as integer microseconds in sorted line order — byte-deterministic. *)
let folded (cp : Critpath.t) =
  let sums : (string, float) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (ip : Critpath.install_path) ->
      List.iter
        (fun (s : Critpath.segment) ->
          let stack =
            String.concat ";"
              [
                Event.vid_to_string ip.Critpath.ip_attr.Stall.a_vid;
                Critpath.seg_kind_to_string s.Critpath.s_kind;
                Critpath.seg_owner s;
              ]
          in
          let prev =
            match Hashtbl.find_opt sums stack with Some v -> v | None -> 0.
          in
          Hashtbl.replace sums stack (prev +. Critpath.seg_duration s))
        ip.Critpath.ip_segments)
    cp.Critpath.installs;
  let buf = Buffer.create 1024 in
  List.iter
    (fun (stack, seconds) ->
      let us = int_of_float ((seconds *. 1e6) +. 0.5) in
      if us > 0 then Buffer.add_string buf (Printf.sprintf "%s %d\n" stack us))
    (Hashtblx.sorted_bindings ~cmp:String.compare sums);
  Buffer.contents buf

(* One complete-span event per critical-path segment on a dedicated pid so
   Perfetto shows the causal decomposition as its own process, lanes keyed
   by the installing node. *)
let critpath_pid = 2

let critpath_spans (cp : Critpath.t) =
  let seen_nodes : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let spans =
    List.concat_map
      (fun (ip : Critpath.install_path) ->
        let tid = ip.Critpath.ip_attr.Stall.a_proc.Event.node in
        Hashtbl.replace seen_nodes tid ();
        List.filter_map
          (fun (s : Critpath.segment) ->
            let dur = Critpath.seg_duration s in
            if dur <= 0. then None
            else
              Some
                (Json.Obj
                   [
                     ( "name",
                       Json.Str
                         (Printf.sprintf "%s %s [%s]"
                            (Critpath.seg_kind_to_string s.Critpath.s_kind)
                            (Critpath.seg_owner s)
                            (Event.vid_to_string ip.Critpath.ip_attr.Stall.a_vid)) );
                     ("cat", Json.Str "critpath");
                     ("ph", Json.Str "X");
                     ("ts", Json.Float (s.Critpath.s_from *. 1e6));
                     ("dur", Json.Float (dur *. 1e6));
                     ("pid", Json.Int critpath_pid);
                     ("tid", Json.Int tid);
                   ]))
          ip.Critpath.ip_segments)
      cp.Critpath.installs
  in
  let meta =
    Json.Obj
      [
        ("name", Json.Str "process_name");
        ("ph", Json.Str "M");
        ("pid", Json.Int critpath_pid);
        ("args", Json.Obj [ ("name", Json.Str "critical path") ]);
      ]
    :: List.map
         (fun node ->
           Json.Obj
             [
               ("name", Json.Str "thread_name");
               ("ph", Json.Str "M");
               ("pid", Json.Int critpath_pid);
               ("tid", Json.Int node);
               ( "args",
                 Json.Obj
                   [ ("name", Json.Str (Printf.sprintf "install @ node %d" node)) ]
               );
             ])
         (Hashtblx.sorted_keys ~cmp:Int.compare seen_nodes)
  in
  meta @ spans

let chrome_of_entries entries =
  let cp = Critpath.of_entries entries in
  Export.chrome_of_entries ~extra:(critpath_spans cp) entries
