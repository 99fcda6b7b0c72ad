module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module Mode = Evs_core.Mode
module Evs = Evs_core.Evs
module E_view = Evs_core.E_view
module Endpoint = Vs_vsync.Endpoint

type payload =
  | Assign of { vid : View.Id.t; ranges : (Proc_id.t * int * int) list }
  | Query of { qid : int; issuer : Proc_id.t; needle : int }
  | Answer of { qid : int; issuer : Proc_id.t; lo : int; hi : int; hits : int list }

type ann = { a_settled : bool }

type net = (payload, ann) Evs.net

let payload_size = function
  | Assign { ranges; _ } -> 16 + (24 * List.length ranges)
  | Query _ -> 24
  | Answer { hits; _ } -> 32 + (8 * List.length hits)

let make_net sim config =
  Evs.make_net ~payload_size ~ann_size:(fun _ -> 1) sim config

type scan = {
  scan_member : Proc_id.t;
  scan_issuer : Proc_id.t;
  scan_query : int;
  scan_lo : int;
  scan_hi : int;
}

(* The replicated dataset: a fixed function of the key, so that every
   replica implicitly holds the whole database. *)
let db_value key = (key * 37 + 11) mod 256

type query_state = {
  mutable q_hits : int list;
  mutable q_covered : (int * int) list;  (* disjoint, sorted ranges *)
}

type t = {
  keyspace : int;
  gate : bool;
  on_scan : scan -> unit;
  mutable obj : (payload, ann) Group_object.t option;
  mutable table : (View.Id.t * (Proc_id.t * int * int) list) option;
  mutable deferred : (int * Proc_id.t * int) list;  (* queued (qid, issuer, needle) *)
  mutable next_qid : int;
  queries : (int, query_state) Hashtbl.t;  (* my own queries *)
}

let get_obj t = match t.obj with Some o -> o | None -> assert false

let me t = Group_object.me (get_obj t)

let obj t = get_obj t

let my_range t =
  match t.table with
  | Some (_, ranges) ->
      List.find_map
        (fun (p, lo, hi) -> if Proc_id.equal p (me t) then Some (lo, hi) else None)
        ranges
  | None -> None

let refresh_annotation t =
  Group_object.set_annotation (get_obj t)
    (Some { a_settled = Option.is_some t.table })

(* Merge a range into a disjoint sorted cover and test completeness. *)
let add_range cover (lo, hi) =
  let merged =
    List.sort
      (fun (a, b) (c, d) ->
        match Int.compare a c with 0 -> Int.compare b d | r -> r)
      ((lo, hi) :: cover)
  in
  let rec fuse = function
    | (a, b) :: (c, d) :: rest when c <= b -> fuse ((a, max b d) :: rest)
    | r :: rest -> r :: fuse rest
    | [] -> []
  in
  fuse merged

let covers_keyspace t cover =
  match cover with [ (0, hi) ] when hi >= t.keyspace -> true | _ -> false

let split_ranges t members =
  let n = List.length members in
  let size = t.keyspace / n and extra = t.keyspace mod n in
  let rec go i lo = function
    | [] -> []
    | p :: rest ->
        let len = size + if i < extra then 1 else 0 in
        (p, lo, lo + len) :: go (i + 1) (lo + len) rest
  in
  go 0 0 members

let scan_and_answer t ~qid ~issuer ~needle =
  match my_range t with
  | Some (lo, hi) ->
      let hits = ref [] in
      for key = hi - 1 downto lo do
        if db_value key = needle then hits := key :: !hits
      done;
      t.on_scan
        { scan_member = me t; scan_issuer = issuer; scan_query = qid;
          scan_lo = lo; scan_hi = hi };
      Group_object.multicast (get_obj t)
        (Answer { qid; issuer; lo; hi; hits = !hits })
  | None -> ()

let process_query t ~qid ~issuer ~needle =
  let table_current =
    match t.table with
    | Some (vid, _) ->
        (not t.gate)
        || View.Id.equal vid
             (Group_object.eview (get_obj t)).E_view.view.View.id
    | None -> false
  in
  if table_current then scan_and_answer t ~qid ~issuer ~needle
  else if t.gate then t.deferred <- t.deferred @ [ (qid, issuer, needle) ]
  else
    (* Ungated and no table at all (fresh member): the query goes
       unanswered by this member — the coverage hole E8 measures. *)
    ()

let drain_deferred t =
  let queued = t.deferred in
  t.deferred <- [];
  List.iter (fun (qid, issuer, needle) -> process_query t ~qid ~issuer ~needle) queued

let handle_settle t _problem _ev =
  let o = get_obj t in
  let ev = Group_object.eview o in
  let vid = ev.E_view.view.View.id in
  if t.gate then begin
    t.table <- None;
    refresh_annotation t
  end;
  (* Internal operation: the coordinator redistributes the key space. *)
  (match Proc_id.min_member (E_view.members ev) with
  | Some c when Proc_id.equal c (me t) ->
      Group_object.multicast o
        (Assign { vid; ranges = split_ranges t (E_view.members ev) })
  | Some _ | None -> ())

let handle_message t ~sender:_ payload =
  match payload with
  | Assign { vid; ranges } ->
      let current = (Group_object.eview (get_obj t)).E_view.view.View.id in
      if View.Id.equal vid current then begin
        t.table <- Some (vid, ranges);
        refresh_annotation t;
        Group_object.complete_settling (get_obj t);
        drain_deferred t
      end
  | Query { qid; issuer; needle } -> process_query t ~qid ~issuer ~needle
  | Answer { qid; issuer; lo; hi; hits } ->
      if Proc_id.equal issuer (me t) then begin
        match Hashtbl.find_opt t.queries qid with
        | Some q ->
            q.q_hits <- q.q_hits @ hits;
            q.q_covered <- add_range q.q_covered (lo, hi)
        | None -> ()
      end

let lookup t ~needle =
  if t.gate && not (Mode.equal (Group_object.mode (get_obj t)) Mode.Normal) then
    Error `Not_serving
  else begin
    let qid = t.next_qid in
    t.next_qid <- t.next_qid + 1;
    Hashtbl.replace t.queries qid { q_hits = []; q_covered = [] };
    Group_object.multicast (get_obj t) (Query { qid; issuer = me t; needle });
    Ok qid
  end

let result_of t qid =
  match Hashtbl.find_opt t.queries qid with
  | Some q when covers_keyspace t q.q_covered ->
      Ok (List.sort_uniq Int.compare q.q_hits)
  | Some _ | None -> Error `Pending

let create sim net ~me:me_ ~universe ~config ~keyspace ?(gate_on_settling = true)
    ?(on_scan = fun _ -> ()) () =
  if keyspace <= 0 then invalid_arg "Parallel_db.create: empty keyspace";
  let t =
    {
      keyspace;
      gate = gate_on_settling;
      on_scan;
      obj = None;
      table = None;
      deferred = [];
      next_qid = 0;
      queries = Hashtbl.create 16;
    }
  in
  let spec =
    {
      (* The look-up works in any view: Reduced mode does not exist, and
         every view change invalidates the responsibility table. *)
      Group_object.target_of = (fun _ -> Mode.Serve_all);
      reconfigure_policy = Mode.On_any_change;
      settled_ann =
        (fun ann -> match ann with Some a -> a.a_settled | None -> false);
    }
  in
  let callbacks =
    {
      Group_object.on_mode = (fun _ -> ());
      on_settle = (fun problem ev -> handle_settle t problem ev);
      on_message = (fun ~sender payload -> handle_message t ~sender payload);
    }
  in
  t.obj <- Some (Group_object.create sim net ~me:me_ ~universe ~config ~spec ~callbacks);
  refresh_annotation t;
  t
