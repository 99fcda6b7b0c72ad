module Sim = Vs_sim.Sim
module Rng = Vs_util.Rng
module Event = Vs_obs.Event
module Int_tbl = Vs_util.Hashtblx.Int_tbl

type 'm envelope = {
  src : Proc_id.t;
  dst : Proc_id.t;
  payload : 'm;
}

type config = {
  delay_min : float;
  delay_max : float;
  drop_prob : float;
  dup_prob : float;
  byte_delay : float;
}

let default_config =
  {
    delay_min = 0.001;
    delay_max = 0.010;
    drop_prob = 0.;
    dup_prob = 0.;
    byte_delay = 0.;
  }

type stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable bytes_sent : int;
}

type 'm t = {
  sim : Sim.t;
  rng : Rng.t;
  config : config;
  size_of : 'm -> int;
  describe : 'm -> string;
  idents : 'm -> Event.msg list;
  handlers : ('m envelope -> unit) Proc_id.Tbl.t;
  node_live : Proc_id.t Int_tbl.t;   (* node -> live incarnation *)
  node_next_inc : int Int_tbl.t;     (* node -> next unused incarnation *)
  mutable component : int -> int;         (* node -> component id *)
  stats : stats;
}

let check_config c =
  if c.delay_min < 0. || c.delay_max < c.delay_min then
    Error (Printf.sprintf "bad delay bounds [%g, %g]" c.delay_min c.delay_max)
  else Ok ()

let create ?(size_of = fun _ -> 1) ?(describe = fun _ -> "msg")
    ?(idents = fun _ -> []) sim config =
  Result.iter_error (fun e -> invalid_arg ("Net.create: " ^ e))
    (check_config config);
  {
    sim;
    rng = Sim.fork_rng sim;
    config;
    size_of;
    describe;
    idents;
    handlers = Proc_id.Tbl.create 64;
    node_live = Int_tbl.create 64;
    node_next_inc = Int_tbl.create 64;
    component = (fun _ -> 0);
    stats =
      { sent = 0; delivered = 0; dropped = 0; duplicated = 0; bytes_sent = 0 };
  }

(* vslint: alloc-free *)
let is_live t p = Proc_id.Tbl.mem t.handlers p

let live_on_node t node = Int_tbl.find_opt t.node_live node

let fresh_incarnation t node =
  let inc = Option.value ~default:0 (Int_tbl.find_opt t.node_next_inc node) in
  Proc_id.make ~node ~inc

let register t p handler =
  (match live_on_node t p.Proc_id.node with
  | Some q ->
      invalid_arg
        (Printf.sprintf "Net.register: node %d already hosts live %s"
           p.Proc_id.node (Proc_id.to_string q))
  | None -> ());
  let next = Option.value ~default:0 (Int_tbl.find_opt t.node_next_inc p.Proc_id.node) in
  if p.Proc_id.inc < next then
    invalid_arg
      (Printf.sprintf "Net.register: stale incarnation %s (next is %d)"
         (Proc_id.to_string p) next);
  Int_tbl.replace t.node_next_inc p.Proc_id.node (p.Proc_id.inc + 1);
  Proc_id.Tbl.replace t.handlers p handler;
  Int_tbl.replace t.node_live p.Proc_id.node p

let crash t p =
  if is_live t p then begin
    Proc_id.Tbl.remove t.handlers p;
    (match live_on_node t p.Proc_id.node with
    | Some q when Proc_id.equal q p -> Int_tbl.remove t.node_live p.Proc_id.node
    | Some _ | None -> ());
    Sim.emit t.sim (Event.Crash { proc = p })
  end

let set_partition t components =
  let table = Int_tbl.create 16 in
  List.iteri
    (fun comp nodes -> List.iter (fun node -> Int_tbl.replace table node comp) nodes)
    components;
  (* Unmentioned nodes get a unique negative component — isolated. *)
  t.component <-
    (fun node ->
      match Int_tbl.find_opt table node with
      | Some c -> c
      | None -> -(node + 1));
  Sim.emit t.sim (Event.Partition { components })

let heal t =
  t.component <- (fun _ -> 0);
  Sim.emit t.sim Event.Heal

(* vslint: alloc-free *)
let connected t a b = a = b || t.component a = t.component b

(* The metering below runs on every send and every drop, whatever the
   observability level, so it sits under the zero-allocation contract: the
   bench asserts at runtime (word-exact Gc counters) and A1 proves at build
   time that these helpers allocate nothing. *)

(* vslint: alloc-free *)
let meter_send t ~bytes =
  let s = t.stats in
  s.sent <- s.sent + 1;
  s.bytes_sent <- s.bytes_sent + bytes

(* vslint: alloc-free *)
let meter_dropped t = t.stats.dropped <- t.stats.dropped + 1

let duplicates t ~self = (not self) && Rng.bool t.rng t.config.dup_prob

let sample_delay t ~bytes =
  Rng.uniform t.rng t.config.delay_min t.config.delay_max
  +. (t.config.byte_delay *. float_of_int bytes)

(* Per-message events are Full-level only, and each of the four emitters
   below guards on [Sim.obs_full] *before* constructing an event, so runs at
   Protocol/Off level allocate nothing extra on the send path (the bench
   harness and test_obs assert this).

   A payload may carry several application messages (a batch): the emitters
   send one event per carried identity so lineage conservation stays
   per-payload, and a single identity-free event for control traffic. *)
let emit_each ids ~f =
  match ids with
  | [] -> f None ~first:true
  | ids -> List.iteri (fun i m -> f (Some m) ~first:(i = 0)) ids

let emit_send t ~src ~dst ~bytes payload =
  if Sim.obs_full t.sim then
    emit_each (t.idents payload) ~f:(fun msg ~first ->
        (* A batch's bytes belong to the wire message, not each payload:
           the first event carries them all so byte sums stay honest. *)
        Sim.emit t.sim
          (Event.Send
             {
               src;
               dst;
               kind = t.describe payload;
               bytes = (if first then bytes else 0);
               msg;
             }))

let emit_recv t ~src ~dst payload =
  if Sim.obs_full t.sim then
    emit_each (t.idents payload) ~f:(fun msg ~first:_ ->
        Sim.emit t.sim
          (Event.Recv { src; dst; kind = t.describe payload; msg }))

let emit_dup t ~src ~dst payload =
  if Sim.obs_full t.sim then
    emit_each (t.idents payload) ~f:(fun msg ~first:_ ->
        Sim.emit t.sim (Event.Dup { src; dst; kind = t.describe payload; msg }))

let drop t ~src ~dst payload ~reason =
  meter_dropped t;
  if Sim.obs_full t.sim then
    emit_each (t.idents payload) ~f:(fun msg ~first:_ ->
        Sim.emit t.sim
          (Event.Drop { src; dst; kind = t.describe payload; reason; msg }))

(* The one transmission path.  [dst] is an incarnation, or the
   pseudo-destination [{ node; inc = -1 }] of a node address: the events of
   the send and of a drop name it, and [deliver] resolves it to the node's
   live incarnation.  Delivery is re-checked at arrival, so a partition
   installed while a message is in flight kills it — the asynchronous-link
   model the paper assumes. *)
let transmit t ~src ~dst payload =
  let bytes = t.size_of payload in
  meter_send t ~bytes;
  let by_node = dst.Proc_id.inc < 0 in
  (* Exempt from loss and duplication: the same incarnation, or for a node
     address the same node. *)
  let self =
    if by_node then src.Proc_id.node = dst.Proc_id.node
    else Proc_id.equal src dst
  in
  if not (is_live t src) then drop t ~src ~dst payload ~reason:"src-dead"
  else if not (connected t src.Proc_id.node dst.Proc_id.node) then
    drop t ~src ~dst payload ~reason:"partition"
  else if (not self) && Rng.bool t.rng t.config.drop_prob then
    drop t ~src ~dst payload ~reason:"loss"
  else begin
    emit_send t ~src ~dst ~bytes payload;
    let deliver () =
      let reached =
        if dst.Proc_id.inc >= 0 then dst
        else Option.value ~default:dst (live_on_node t dst.Proc_id.node)
      in
      match Proc_id.Tbl.find_opt t.handlers reached with
      | Some handler when connected t src.Proc_id.node dst.Proc_id.node ->
          t.stats.delivered <- t.stats.delivered + 1;
          emit_recv t ~src ~dst:reached payload;
          handler { src; dst = reached; payload }
      | Some _ -> drop t ~src ~dst payload ~reason:"partition-inflight"
      | None -> drop t ~src ~dst payload ~reason:"dst-dead"
    in
    (* The duplication draw precedes the first delay draw for a process
       address and follows it for a node address. *)
    let early = (not by_node) && duplicates t ~self in
    ignore (Sim.after t.sim (sample_delay t ~bytes) deliver);
    if early || (by_node && duplicates t ~self) then begin
      t.stats.duplicated <- t.stats.duplicated + 1;
      emit_dup t ~src ~dst payload;
      ignore (Sim.after t.sim (sample_delay t ~bytes) deliver)
    end
  end

let send t ~src ~dst payload = transmit t ~src ~dst payload

let send_node t ~src ~dst_node payload =
  transmit t ~src ~dst:{ Proc_id.node = dst_node; inc = -1 } payload

let stats t = { t.stats with sent = t.stats.sent }

(* The zero-allocation contract of the send fast path, as "path:function"
   entries.  test_obs's "zero-alloc runtime guard" asserts the runtime half
   (word-exact Gc counters, Off = Protocol), and bench obs prints this list
   next to its word counts; vslint's A1 proves each body allocation-free
   and B1 proves this list and the annotated set name the same functions,
   so the two guards cannot silently diverge. *)
let zero_alloc_contract =
  [
    "lib/net/net.ml:is_live";
    "lib/net/net.ml:connected";
    "lib/net/net.ml:meter_send";
    "lib/net/net.ml:meter_dropped";
    "lib/sim/sim.ml:obs_full";
    "lib/obs/recorder.ml:full_on";
  ]
