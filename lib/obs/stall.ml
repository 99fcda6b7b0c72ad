(* Flush-stall attribution — splitting each view installation's latency into
   the three waits of the paper's cost model (Sections 2 and 6):

   - propose-wait:    first Propose of the view until this member's own
                      flush-ack — the member is draining and flushing its
                      unstable messages;
   - flush-ack-wait:  this member's flush-ack until the last flush-ack of
                      the view it had to hear — waiting on the slowest peer
                      to reach the sync barrier;
   - stability-wait:  last flush-ack until this member's install — the
                      coordinator's stability decision and the install
                      delivery itself.

   The segments are reconstructed from the recorded Propose / Flush /
   Install events alone (one forward pass, events in time order), so the
   report works on any Protocol-level recording — live runs, corpus repros,
   replayed traces — with no extra instrumentation in the protocol.

   The three anchors (first Propose per view, first own Flush per
   (proc, view), newest Flush per view) live in one incremental [tracker].
   Critpath, Metrics and the Chrome exporter step the same tracker, so no
   two readers of a recording can anchor an install differently. *)

type attr = {
  a_proc : Event.proc;
  a_vid : Event.vid;
  a_time : float;  (* install time *)
  a_proposed : float;
  a_own_flush : float;
  a_last_flush : float;
  a_propose_wait : float;
  a_flush_wait : float;
  a_stability_wait : float;
}

let total a = a.a_propose_wait +. a.a_flush_wait +. a.a_stability_wait

(* --- the anchor tracker ---------------------------------------------------- *)

type install = {
  i_proc : Event.proc;
  i_vid : Event.vid;
  i_time : float;
  i_proposed : float option;
  i_own_flush : (float * int) option;
  i_last_flush : (float * Event.proc) option;
}

type tracker = {
  mutable index : int;  (* stream index of the next event *)
  (* first propose time per view *)
  proposed : (Event.vid, float) Hashtbl.t;
  (* this member's first flush-ack per (proc, view), with its stream index;
     kept across installs, so a repeated install reuses it *)
  own_flush : (Event.proc * Event.vid, float * int) Hashtbl.t;
  (* newest flush-ack seen so far per view — at an Install event this is by
     construction the last flush at or before the install *)
  last_flush : (Event.vid, float * Event.proc) Hashtbl.t;
}

let tracker () =
  {
    index = 0;
    proposed = Hashtbl.create 16;
    own_flush = Hashtbl.create 32;
    last_flush = Hashtbl.create 16;
  }

let step t ~time (event : Event.t) =
  let index = t.index in
  t.index <- index + 1;
  match event with
  | Event.Propose { vid; _ } ->
      if not (Hashtbl.mem t.proposed vid) then
        Hashtbl.replace t.proposed vid time;
      None
  | Event.Flush { proc; vid; _ } ->
      let key = (proc, vid) in
      if not (Hashtbl.mem t.own_flush key) then
        Hashtbl.replace t.own_flush key (time, index);
      Hashtbl.replace t.last_flush vid (time, proc);
      None
  | Event.Install { proc; vid; _ } ->
      Some
        {
          i_proc = proc;
          i_vid = vid;
          i_time = time;
          i_proposed = Hashtbl.find_opt t.proposed vid;
          i_own_flush = Hashtbl.find_opt t.own_flush (proc, vid);
          i_last_flush = Hashtbl.find_opt t.last_flush vid;
        }
  | _ -> None

let attr i =
  match i.i_proposed with
  | None -> None  (* truncated recording: no propose retained *)
  | Some t_prop ->
      let t_install = i.i_time in
      let t_self =
        match i.i_own_flush with
        | Some (t, _) -> t
        | None -> t_prop  (* no own flush: joined mid-change *)
      in
      let t_last =
        match i.i_last_flush with
        | Some (t, _) -> max t t_self
        | None -> t_self
      in
      (* Clamp each boundary into [t_prop, t_install] so segments stay
         non-negative even on reordered/partial recordings. *)
      let clamp x = min t_install (max t_prop x) in
      let t_self = clamp t_self and t_last = clamp t_last in
      let t_last = max t_last t_self in
      Some
        {
          a_proc = i.i_proc;
          a_vid = i.i_vid;
          a_time = t_install;
          a_proposed = t_prop;
          a_own_flush = t_self;
          a_last_flush = t_last;
          a_propose_wait = t_self -. t_prop;
          a_flush_wait = t_last -. t_self;
          a_stability_wait = t_install -. t_last;
        }

let of_entries (entries : Recorder.entry list) =
  let t = tracker () in
  List.rev
    (List.fold_left
       (fun acc (e : Recorder.entry) ->
         match Option.bind (step t ~time:e.time e.event) attr with
         | Some a -> a :: acc
         | None -> acc)
       [] entries)

(* --- per-window aggregation ---------------------------------------------- *)

type window_row = {
  w_index : int;
  w_installs : int;
  w_propose : float;  (* summed seconds per segment *)
  w_flush : float;
  w_stability : float;
}

let windows ~interval attrs =
  if not (interval > 0.) then invalid_arg "Stall.windows: interval must be > 0";
  (* Attrs arrive in install-time order, so each window's segments are summed
     in that order. *)
  Vs_util.Listx.group_by
    ~key:(fun a -> int_of_float (floor (a.a_time /. interval)))
    ~cmp_key:Int.compare attrs
  |> List.map (fun (w_index, group) ->
         let sum seg = List.fold_left (fun acc a -> acc +. seg a) 0. group in
         {
           w_index;
           w_installs = List.length group;
           w_propose = sum (fun a -> a.a_propose_wait);
           w_flush = sum (fun a -> a.a_flush_wait);
           w_stability = sum (fun a -> a.a_stability_wait);
         })

let window_total r = r.w_propose +. r.w_flush +. r.w_stability

(* --- rendering ----------------------------------------------------------- *)

let to_table ~interval attrs =
  let table =
    Vs_stats.Table.create
      ~title:
        (Printf.sprintf
           "stall attribution: install latency split per %g s window \
            (propose-wait / flush-ack-wait / stability-wait)"
           interval)
      ~columns:
        [
          "window";
          "installs";
          "propose (s)";
          "flush-ack (s)";
          "stability (s)";
          "dominant";
        ]
  in
  List.iter
    (fun r ->
      let dominant =
        if r.w_propose >= r.w_flush && r.w_propose >= r.w_stability then
          "propose"
        else if r.w_flush >= r.w_stability then "flush-ack"
        else "stability"
      in
      Vs_stats.Table.add_row table
        [
          Vs_stats.Table.fint r.w_index;
          Vs_stats.Table.fint r.w_installs;
          Vs_stats.Table.ffloat ~decimals:4 r.w_propose;
          Vs_stats.Table.ffloat ~decimals:4 r.w_flush;
          Vs_stats.Table.ffloat ~decimals:4 r.w_stability;
          dominant;
        ])
    (windows ~interval attrs);
  table

let to_json ~interval attrs =
  let row r =
    Json.Obj
      [
        ("window", Json.Int r.w_index);
        ("installs", Json.Int r.w_installs);
        ("propose_wait", Json.Float r.w_propose);
        ("flush_ack_wait", Json.Float r.w_flush);
        ("stability_wait", Json.Float r.w_stability);
      ]
  in
  Json.Obj
    [
      ("interval", Json.Float interval);
      ("windows", Json.Arr (List.map row (windows ~interval attrs)));
    ]
