(* Cross-run structural diff (see rundiff.mli for the alignment model). *)

type divergence = {
  dv_index : int;
  dv_time_a : float option;
  dv_time_b : float option;
  dv_a : string option;
  dv_b : string option;
  dv_field : string option;
}

type phase_delta = {
  pd_phase : string;
  pd_a : float;
  pd_b : float;
  pd_delta : float;
}

type t = {
  d_events_a : int;
  d_events_b : int;
  d_installs_a : int;
  d_installs_b : int;
  d_views_a : int;
  d_views_b : int;
  d_shared_views : int;
  d_first_view_diff : (string option * string option) option;
  d_ops_a : int;
  d_ops_b : int;
  d_ops_only_a : int;
  d_ops_only_b : int;
  d_first_op_diff : string option;
  d_divergence : divergence option;
  d_phases : phase_delta list;
}

(* Timestamp-free identity of an event: latency jitter is not causal
   divergence, reordered payloads are. *)
let signature (ev : Event.t) = Event.type_name ev ^ " " ^ Event.render ev

let corrupt_field (ev : Event.t) =
  match ev with Event.Corrupt { field; _ } -> Some field | _ -> None

(* First stream position where the causal signatures differ; [None] when one
   stream is a prefix of the other only if it is a *proper* prefix (equal
   streams yield no divergence).  A corrupted field is taken from B's side
   first. *)
let first_divergence (a : Recorder.entry list) (b : Recorder.entry list) =
  let time = Option.map (fun (e : Recorder.entry) -> e.time)
  and sign = Option.map (fun (e : Recorder.entry) -> signature e.event)
  and field e =
    Option.bind e (fun (e : Recorder.entry) -> corrupt_field e.event)
  in
  let rec go i a b =
    match (a, b) with
    | [], [] -> None
    | ea :: ra, eb :: rb
      when String.equal (signature ea.Recorder.event)
             (signature eb.Recorder.event) ->
        go (i + 1) ra rb
    | _ ->
        let ea = List.nth_opt a 0 and eb = List.nth_opt b 0 in
        Some
          {
            dv_index = i;
            dv_time_a = time ea;
            dv_time_b = time eb;
            dv_a = sign ea;
            dv_b = sign eb;
            dv_field =
              (match field eb with None -> field ea | f -> f);
          }
  in
  go 0 a b

(* Distinct installed views in first-install order. *)
let install_chain entries =
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let rev = ref [] in
  List.iter
    (fun (e : Recorder.entry) ->
      match e.Recorder.event with
      | Event.Install { vid; _ } ->
          let k = Event.vid_to_string vid in
          if not (Hashtbl.mem seen k) then begin
            Hashtbl.replace seen k ();
            rev := k :: !rev
          end
      | _ -> ())
    entries;
  List.rev !rev

let count_installs entries =
  List.fold_left
    (fun n (e : Recorder.entry) ->
      match e.Recorder.event with Event.Install _ -> n + 1 | _ -> n)
    0 entries

let align_chains a b =
  let rec go shared a b =
    match (a, b) with
    | [], [] -> (shared, None)
    | x :: _, [] -> (shared, Some (Some x, None))
    | [], y :: _ -> (shared, Some (None, Some y))
    | x :: ra, y :: rb ->
        if String.equal x y then go (shared + 1) ra rb
        else (shared, Some (Some x, Some y))
  in
  go 0 a b

(* Message identities, sorted; symmetric-difference stats via merge. *)
let op_idents entries =
  Vs_util.Listx.sorted_set ~cmp:Event.compare_msg
    (List.filter_map (fun (e : Recorder.entry) -> Event.msg_of e.event) entries)

let op_alignment a b =
  let only_a = Vs_util.Listx.diff ~cmp:Event.compare_msg a b
  and only_b = Vs_util.Listx.diff ~cmp:Event.compare_msg b a in
  (* the first identity of the merged order that one side lacks *)
  let first =
    match (only_a, only_b) with
    | x :: _, y :: _ -> Some (if Event.compare_msg x y < 0 then x else y)
    | x :: _, [] | [], x :: _ -> Some x
    | [], [] -> None
  in
  (List.length only_a, List.length only_b, Option.map Event.msg_to_string first)

(* Per-phase decomposition: the three stall phases, then the six
   critical-path segment kinds, then the total install latency. *)
let phases entries =
  let cp = Critpath.of_entries entries in
  let total, p, f, s =
    List.fold_left
      (fun (t, p, f, s) ip ->
        let a = ip.Critpath.ip_attr in
        ( t +. Critpath.latency ip,
          p +. a.Stall.a_propose_wait,
          f +. a.Stall.a_flush_wait,
          s +. a.Stall.a_stability_wait ))
      (0., 0., 0., 0.) cp.Critpath.installs
  in
  [ ("install-latency", total); ("propose-wait", p); ("flush-ack-wait", f);
    ("stability-wait", s) ]
  @ List.map
      (fun (k, v) -> ("critpath." ^ Critpath.seg_kind_to_string k, v))
      (Critpath.kind_seconds cp)

(* The first transient-corruption injection at or after stream index [idx]
   — the harness emits a Note announcing the script action immediately
   before the protocol's [Corrupt] record, so the event *at* the divergence
   is usually the note and the field lives one entry later. *)
let first_corrupt_from idx entries =
  let rec go i = function
    | [] -> None
    | (e : Recorder.entry) :: rest ->
        if i >= idx then
          match corrupt_field e.Recorder.event with
          | Some f -> Some f
          | None -> go (i + 1) rest
        else go (i + 1) rest
  in
  go 0 entries

let diff ~(a : Recorder.entry list) ~(b : Recorder.entry list) =
  let chain_a = install_chain a and chain_b = install_chain b in
  let shared, first_view_diff = align_chains chain_a chain_b in
  let ops_a = op_idents a and ops_b = op_idents b in
  let only_a, only_b, first_op = op_alignment ops_a ops_b in
  let pa = phases a and pb = phases b in
  {
    d_events_a = List.length a;
    d_events_b = List.length b;
    d_installs_a = count_installs a;
    d_installs_b = count_installs b;
    d_views_a = List.length chain_a;
    d_views_b = List.length chain_b;
    d_shared_views = shared;
    d_first_view_diff = first_view_diff;
    d_ops_a = List.length ops_a;
    d_ops_b = List.length ops_b;
    d_ops_only_a = only_a;
    d_ops_only_b = only_b;
    d_first_op_diff = first_op;
    d_divergence =
      Option.map
        (fun dv ->
          match dv.dv_field with
          | Some _ -> dv
          | None ->
              {
                dv with
                dv_field =
                  (match first_corrupt_from dv.dv_index b with
                  | Some f -> Some f
                  | None -> first_corrupt_from dv.dv_index a);
              })
        (first_divergence a b);
    d_phases =
      List.map2
        (fun (name, va) (_, vb) ->
          { pd_phase = name; pd_a = va; pd_b = vb; pd_delta = vb -. va })
        pa pb;
  }

(* --- rendering ------------------------------------------------------------ *)

let opt_repr = function None -> "-" | Some s -> s

let opt_time = function
  | None -> "-"
  | Some t -> Printf.sprintf "t=%.6f" t

let to_text t =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  (match t.d_divergence with
  | None ->
      line "runs are causally identical (%d events, %d installs)" t.d_events_a
        t.d_installs_a
  | Some dv ->
      line "first causal divergence at event %d:" dv.dv_index;
      line "  A: %s  (%s)" (opt_repr dv.dv_a) (opt_time dv.dv_time_a);
      line "  B: %s  (%s)" (opt_repr dv.dv_b) (opt_time dv.dv_time_b);
      (match dv.dv_field with
      | Some f -> line "  corrupted field: %s" f
      | None -> ()));
  line "events: A=%d B=%d; installs: A=%d B=%d" t.d_events_a t.d_events_b
    t.d_installs_a t.d_installs_b;
  line "view chains: A=%d B=%d, shared prefix %d%s" t.d_views_a t.d_views_b
    t.d_shared_views
    (match t.d_first_view_diff with
    | None -> ""
    | Some (x, y) ->
        Printf.sprintf ", first difference %s vs %s" (opt_repr x) (opt_repr y));
  line "ops: A=%d B=%d, only-A %d, only-B %d%s" t.d_ops_a t.d_ops_b
    t.d_ops_only_a t.d_ops_only_b
    (match t.d_first_op_diff with
    | None -> ""
    | Some m -> Printf.sprintf ", first unshared %s" m);
  let table =
    Vs_stats.Table.create ~title:"per-phase latency deltas (summed seconds)"
      ~columns:[ "phase"; "A"; "B"; "delta" ]
  in
  List.iter
    (fun pd ->
      Vs_stats.Table.add_row table
        [
          pd.pd_phase;
          Vs_stats.Table.ffloat ~decimals:6 pd.pd_a;
          Vs_stats.Table.ffloat ~decimals:6 pd.pd_b;
          Vs_stats.Table.ffloat ~decimals:6 pd.pd_delta;
        ])
    t.d_phases;
  Buffer.add_string buf (Vs_stats.Table.to_string table);
  Buffer.contents buf

let opt_json f = function None -> Json.Null | Some v -> f v

let to_json t =
  Json.Obj
    [
      ("events_a", Json.Int t.d_events_a);
      ("events_b", Json.Int t.d_events_b);
      ("installs_a", Json.Int t.d_installs_a);
      ("installs_b", Json.Int t.d_installs_b);
      ("views_a", Json.Int t.d_views_a);
      ("views_b", Json.Int t.d_views_b);
      ("shared_views", Json.Int t.d_shared_views);
      ( "first_view_diff",
        match t.d_first_view_diff with
        | None -> Json.Null
        | Some (x, y) ->
            Json.Obj
              [
                ("a", opt_json (fun s -> Json.Str s) x);
                ("b", opt_json (fun s -> Json.Str s) y);
              ] );
      ("ops_a", Json.Int t.d_ops_a);
      ("ops_b", Json.Int t.d_ops_b);
      ("ops_only_a", Json.Int t.d_ops_only_a);
      ("ops_only_b", Json.Int t.d_ops_only_b);
      ("first_op_diff", opt_json (fun s -> Json.Str s) t.d_first_op_diff);
      ( "divergence",
        match t.d_divergence with
        | None -> Json.Null
        | Some dv ->
            Json.Obj
              [
                ("index", Json.Int dv.dv_index);
                ("time_a", opt_json (fun f -> Json.Float f) dv.dv_time_a);
                ("time_b", opt_json (fun f -> Json.Float f) dv.dv_time_b);
                ("a", opt_json (fun s -> Json.Str s) dv.dv_a);
                ("b", opt_json (fun s -> Json.Str s) dv.dv_b);
                ("corrupted_field", opt_json (fun s -> Json.Str s) dv.dv_field);
              ] );
      ( "phases",
        Json.Arr
          (List.map
             (fun pd ->
               Json.Obj
                 [
                   ("phase", Json.Str pd.pd_phase);
                   ("a", Json.Float pd.pd_a);
                   ("b", Json.Float pd.pd_b);
                   ("delta", Json.Float pd.pd_delta);
                 ])
             t.d_phases) );
    ]
