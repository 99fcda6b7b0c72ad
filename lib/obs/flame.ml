(* Folded-stack rendering of critical paths (see flame.mli). *)

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
