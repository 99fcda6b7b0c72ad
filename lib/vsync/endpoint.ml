module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Proc_id = Vs_net.Proc_id
module Fd = Vs_fd.Fd
module View = Vs_gms.View
module Estimator = Vs_gms.Estimator
module Listx = Vs_util.Listx
module Rng = Vs_util.Rng
module Int_tbl = Vs_util.Hashtblx.Int_tbl
module Ptbl = Proc_id.Tbl

type order = Fifo | Total | Causal

type config = {
  fd : Fd.config;
  stability : float;
  nag_period : float;
  flush_timeout : float;
  nack_delay : float;
  one_at_a_time : bool;
  stability_interval : float option;
  retry_backoff : float;
  retry_backoff_max : float;
  batching : bool;
  batch_max : int;
  pipeline_depth : int;
}

let default_config =
  {
    fd = Fd.default_config;
    stability = 0.150;
    nag_period = 0.200;
    flush_timeout = 0.300;
    nack_delay = 0.025;
    one_at_a_time = false;
    stability_interval = Some 0.050;
    retry_backoff = 0.040;
    retry_backoff_max = 0.400;
    batching = false;
    batch_max = 64;
    pipeline_depth = 1;
  }

(* Fixed protocol constants.  Each control-plane retry delay is scaled by a
   uniform factor in [1 - retry_jitter, 1 + retry_jitter] to de-synchronise
   senders; a reliable send is given up after [retry_limit] re-sends (the
   failure detector and flush timeout own recovery beyond that); a batching
   round closes [batch_window] after its first buffered item. *)
let retry_jitter = 0.25

let retry_limit = 8

let batch_window = 0.002

type 'ann view_event = {
  view : View.t;
  annotations : (Proc_id.t * 'ann option) list;
  priors : (Proc_id.t * View.Id.t) list;
}

type ('a, 'ann) callbacks = {
  on_view : 'ann view_event -> unit;
  on_message : sender:Proc_id.t -> 'a -> unit;
}

type stats = {
  mutable data_sent : int;
  mutable to_dropped : int;
  mutable nacks_sent : int;
  mutable retransmits : int;
  mutable peer_retransmits : int;
  mutable stabilized : int;
  mutable ctl_retries : int;
  mutable batches_sent : int;
}

(* Per-sender incoming stream within the current view.  [log] keeps every
   data message seen (delivered or not): it is what the flush reports.
   [next] is the lowest undelivered sequence number.  [trimmed] is the
   stability watermark: every seq below it has already been removed from
   [log], so trimming on a new stability floor walks only [trimmed, floor)
   instead of snapshotting and sorting the whole log per gossip report. *)
type 'a stream = {
  mutable next : int;
  buffer : 'a Wire.data Int_tbl.t;
  log : 'a Wire.data Int_tbl.t;
  mutable trimmed : int;
  mutable nack_armed : bool;
  mutable nack_round : int;
      (* how many NACK rounds the current gap has survived; selects the
         retransmission target — round 0 asks the original sender, later
         rounds rotate over the other members (peer-served recovery) *)
}

(* What a member reported in its flush ack: the view it comes from, its
   annotation, and every data message of that view it has seen. *)
type ('a, 'ann) ack = {
  a_from : View.Id.t;
  a_ann : 'ann option;
  a_seen : 'a Wire.data list;
}

type ('a, 'ann) proposal = {
  p_vid : View.Id.t;
  p_members : Proc_id.t list;
  p_acks : ('a, 'ann) ack Ptbl.t;
  mutable p_timer : Sim.handle option;
}

type phase = Active | Flushing of View.Id.t

(* One unacked control-plane send awaiting retry.  The payload and the
   supersession test live in the retry closure; the entry itself is what
   {!Ctl_ack} and {!stop_stack} need to cancel it. *)
type ctl_pending = {
  c_dst : Proc_id.t;
  mutable c_attempts : int;
  mutable c_delay : float;
  mutable c_timer : Sim.handle option;
}

(* A batching round in the making, shared by the data batcher (data
   messages) and the total-order batcher (request payloads): the items,
   newest first, their count, the window timer, and what closing the round
   does (set once in [create]). *)
type 'x round = {
  mutable items : 'x list;
  mutable len : int;
  mutable timer : Sim.handle option;
  mutable close : unit -> unit;
}

type ('a, 'ann) t = {
  sim : Sim.t;
  net : ('a, 'ann) Wire.t Net.t;
  me : Proc_id.t;
  config : config;
  rng : Rng.t;
  mutable callbacks : ('a, 'ann) callbacks;
  mutable view : View.t;
  mutable phase : phase;
  mutable acked : View.Id.t;  (* highest proposal acked / view installed *)
  mutable max_epoch : int;
  mutable send_seq : int;
  mutable to_seq : int;  (* my next total-order request number *)
  (* coordinator side: per-origin relay sequencing *)
  to_streams : (int ref * 'a Int_tbl.t) Ptbl.t;
  streams : 'a stream Ptbl.t;
  pending_out : (order * 'a) Queue.t;  (* queued while flushing *)
  (* reliable control plane: unacked Propose/Flush_ack/Install/To_request *)
  mutable ctl_rid : int;
  ctl_pending : ctl_pending Int_tbl.t;
  mutable stash : 'a Wire.data list;
      (* data for the view being installed that raced ahead of the Install *)
  stash_to : (Proc_id.t * int * 'a) Queue.t;
      (* total-order requests for the view being installed that reached us —
         its future coordinator — before our own Install.  A queue: relay
         order is arrival order, and stashing must stay O(1) per request
         even when hundreds arrive during one long flush *)
  mutable ann : 'ann option;
  mutable proposal : ('a, 'ann) proposal option;
  mutable fd : Fd.t option;
  mutable est : Estimator.t option;
  mutable alive : bool;
  (* stability tracking: each member's latest delivered-prefix vector,
     keyed by sender for O(1) lookup inside the floor fold *)
  stable_vectors : int Ptbl.t Ptbl.t;
  mutable trim_due : bool;
      (* since the last trim pass, a table of [stable_vectors] changed (by
         a report or a corruption), a stream was created or a view was
         installed.  While false, every stream's [trimmed] is at or above
         its floor, so the pass would change nothing *)
  (* NACK retransmission targets: the current view's members minus me, in
     member order, cached per view so round-robin target selection does not
     rebuild (and index into) a list on every armed gap *)
  mutable nack_peers : Proc_id.t array;
  (* batched data plane (config.batching): outgoing data buffered per
     flush round; sequence numbers were assigned at multicast time so
     identity is independent of when the batch ships *)
  batch : 'a Wire.data round;
  rounds_inflight : int Queue.t;
      (* last seq of each shipped but not-yet-stable round; bounded by
         config.pipeline_depth when stability gossip is on *)
  to_batch : 'a round;
      (* total-order requests awaiting one To_batch envelope *)
  stats : stats;
}

let me t = t.me

let view t = t.view

let is_blocked t = match t.phase with Flushing _ -> true | Active -> false

let is_alive t = t.alive

let stats t = { t.stats with data_sent = t.stats.data_sent }

let sum_stats all =
  let sum field = List.fold_left (fun acc s -> acc + field s) 0 all in
  {
    data_sent = sum (fun s -> s.data_sent);
    to_dropped = sum (fun s -> s.to_dropped);
    nacks_sent = sum (fun s -> s.nacks_sent);
    retransmits = sum (fun s -> s.retransmits);
    peer_retransmits = sum (fun s -> s.peer_retransmits);
    stabilized = sum (fun s -> s.stabilized);
    ctl_retries = sum (fun s -> s.ctl_retries);
    batches_sent = sum (fun s -> s.batches_sent);
  }

let set_annotation t ann = t.ann <- ann

let log_event t msg =
  Sim.record t.sim ~component:"vsync"
    (Printf.sprintf "%s %s" (Proc_id.to_string t.me) msg)

let unicast t dst payload = Net.send t.net ~src:t.me ~dst payload

(* ---------- reliable control plane ----------

   Membership traffic (Propose, Flush_ack, Install) and total-order requests
   are each sent exactly once by the base protocol, so any loss either stalls
   view installation until [flush_timeout] or silently drops a message.  The
   reliable layer wraps such sends in {!Wire.Reliable}: the receiver acks
   every copy, and the sender re-sends with exponential backoff and jitter
   until acked, superseded (the [is_done] test — e.g. a higher view id got
   accepted), the failure detector stops listing the peer, or [retry_limit]
   is exhausted.  Inner payloads are idempotent on the receiving side, so
   duplicated deliveries (lost acks) are harmless. *)

let ctl_peer_listed t dst =
  Proc_id.equal dst t.me
  ||
  match t.fd with
  | Some fd -> List.exists (Proc_id.equal dst) (Fd.reachable fd)
  | None -> true

let ctl_cancel entry =
  match entry.c_timer with Some h -> Sim.cancel h | None -> ()

let rec ctl_arm t rid entry payload ~is_done =
  let jitter = Rng.uniform t.rng (-.retry_jitter) retry_jitter in
  let delay = entry.c_delay *. (1.0 +. jitter) in
  entry.c_timer <-
    Some
      (Sim.after t.sim delay (fun () ->
           entry.c_timer <- None;
           if t.alive && Int_tbl.mem t.ctl_pending rid then begin
             if
               is_done ()
               || entry.c_attempts >= retry_limit
               || not (ctl_peer_listed t entry.c_dst)
             then Int_tbl.remove t.ctl_pending rid
             else begin
               entry.c_attempts <- entry.c_attempts + 1;
               entry.c_delay <-
                 Float.min t.config.retry_backoff_max (entry.c_delay *. 2.0);
               t.stats.ctl_retries <- t.stats.ctl_retries + 1;
               Sim.emit t.sim
                 (Vs_obs.Event.Backoff
                    {
                      proc = t.me;
                      dst = entry.c_dst;
                      attempt = entry.c_attempts;
                      delay = entry.c_delay;
                    });
               unicast t entry.c_dst (Wire.Reliable { rid; payload });
               ctl_arm t rid entry payload ~is_done
             end
           end))

(* Send [payload] to [dst], retrying until acked or moot.  [is_done] is
   re-evaluated before each retry: it must return [true] once protocol
   progress has made the send irrelevant.  Self-sends bypass the machinery —
   the simulated network never drops them. *)
let ctl_send t dst payload ~is_done =
  if Proc_id.equal dst t.me then unicast t dst payload
  else begin
    let rid = t.ctl_rid in
    t.ctl_rid <- t.ctl_rid + 1;
    let entry =
      {
        c_dst = dst;
        c_attempts = 0;
        c_delay = t.config.retry_backoff;
        c_timer = None;
      }
    in
    Int_tbl.replace t.ctl_pending rid entry;
    unicast t dst (Wire.Reliable { rid; payload });
    ctl_arm t rid entry payload ~is_done
  end

let ctl_acked t rid =
  match Int_tbl.find_opt t.ctl_pending rid with
  | Some entry ->
      ctl_cancel entry;
      Int_tbl.remove t.ctl_pending rid
  | None -> ()

let ctl_reset t =
  (* vslint: allow D2 — cancel-only sweep; timer cancellation commutes *)
  Int_tbl.iter (fun _ entry -> ctl_cancel entry) t.ctl_pending;
  Int_tbl.reset t.ctl_pending

let stream_for t sender =
  match Ptbl.find_opt t.streams sender with
  | Some s -> s
  | None ->
      let s =
        {
          next = 0;
          buffer = Int_tbl.create 8;
          log = Int_tbl.create 8;
          trimmed = 0;
          nack_armed = false;
          nack_round = 0;
        }
      in
      Ptbl.add t.streams sender s;
      t.trim_due <- true;
      s

(* The view's stability floor for a sender: the minimum delivered prefix
   reported by every current member (0 until everyone has reported).
   Messages below it are delivered everywhere, so flush reports can omit
   them and logs can drop them.  Vectors are stored as per-member hash
   tables so the fold is O(members), not O(members * senders) as the old
   assoc-list scan was — the floor is recomputed per sender on every
   stability tick, which made the scan quadratic on the gossip hot path. *)
let floor_from_tables tables members sender =
  List.fold_left
    (fun floor member ->
      let reported =
        match Ptbl.find_opt tables member with
        | Some table -> (
            match Ptbl.find_opt table sender with Some n -> n | None -> 0)
        | None -> 0
      in
      Int.min floor reported)
    max_int members

let stability_floor t sender =
  floor_from_tables t.stable_vectors t.view.View.members sender

(* Test hook: the floor as computed from raw (member, vector) assoc lists,
   through the same table-based fold the endpoint uses — lets tests pin the
   rewrite against an independent reference without building an endpoint. *)
let stability_floor_of ~vectors ~members ~sender =
  let tables = Ptbl.create (List.length vectors) in
  List.iter
    (fun (member, vector) ->
      let table = Ptbl.create (List.length vector) in
      List.iter (fun (s, n) -> Ptbl.replace table s n) vector;
      Ptbl.replace tables member table)
    vectors;
  floor_from_tables tables members sender

(* Everything this process has seen (delivered or buffered) in the current
   view above the stability floor, in canonical (sender, seq) order — the
   flush report. *)
let all_seen t =
  Ptbl.sorted_bindings t.streams
  |> List.concat_map (fun (sender, s) ->
         let floor =
           match t.config.stability_interval with
           | Some _ -> stability_floor t sender
           | None -> 0
         in
         Int_tbl.sorted_bindings s.log
         |> List.filter_map (fun (seq, d) ->
                if seq >= floor then Some d else None))
  |> List.sort Wire.compare_data

let deliver_user t (d : 'a Wire.data) =
  match d.body with
  | Wire.User u -> t.callbacks.on_message ~sender:d.sender u
  | Wire.Relay { orig; user } -> t.callbacks.on_message ~sender:orig user
  | Wire.Causal { user; _ } -> t.callbacks.on_message ~sender:d.sender user

(* A causal message is deliverable once this process's delivered prefixes
   dominate the sender's at multicast time. *)
let causally_ready t (d : 'a Wire.data) =
  match d.Wire.body with
  | Wire.User _ | Wire.Relay _ -> true
  | Wire.Causal { deps; _ } ->
      List.for_all
        (fun (q, n) ->
          Proc_id.equal q d.Wire.sender
          ||
          match Ptbl.find_opt t.streams q with
          | Some s -> s.next >= n
          | None -> n <= 0)
        deps

(* Deliver buffered messages in FIFO order per stream while contiguous and
   causally ready; a delivery can unblock other streams, so iterate to a
   fixpoint. *)
let drain_all t =
  let progress = ref true in
  while !progress do
    progress := false;
    (* Snapshot the streams in Proc_id order each pass: cross-stream
       delivery order must not depend on hash-bucket layout, and the app's
       on_message callback is free to multicast (which must not observe a
       table mid-iteration). *)
    List.iter
      (fun (_, s) ->
        let continue_stream = ref true in
        while !continue_stream do
          match Int_tbl.find_opt s.buffer s.next with
          | Some d when causally_ready t d ->
              Int_tbl.remove s.buffer s.next;
              s.next <- s.next + 1;
              deliver_user t d;
              progress := true
          | Some _ | None -> continue_stream := false
        done)
      (Ptbl.sorted_bindings t.streams)
  done

(* Where to send the [round]-th NACK for a gap in [sender]'s stream: the
   original sender first, then round-robin over the other view members —
   any member that logged the messages can serve them, so a crashed
   sender's tail stays recoverable until the flush.  The peer list is
   cached as an array per installed view: rebuilding it (and List.nth-ing
   into it) on every NACK round was O(members) per gap check, and the
   rotation must not pay that on a hot recovery path.  Array order is the
   view's member order, so targets are byte-identical to the old
   list-based selection. *)
let live_peers_array ~me ~members =
  Array.of_list (List.filter (fun m -> not (Proc_id.equal m me)) members)

let nack_target_in ~peers ~sender round =
  if round = 0 then sender
  else
    let n = Array.length peers in
    if n = 0 then sender else peers.(round mod n)

let nack_target t sender round =
  nack_target_in ~peers:t.nack_peers ~sender round

(* Test hook: the first [rounds] targets for a gap in [sender]'s stream as
   seen by [me] in a view with [members] — pins the cached-array rotation
   against the old list-based reference. *)
let nack_targets_of ~me ~members ~sender ~rounds =
  let peers = live_peers_array ~me ~members in
  List.init rounds (fun round -> nack_target_in ~peers ~sender round)

let rec arm_nack t sender s =
  if (not s.nack_armed) && Int_tbl.length s.buffer > 0 then begin
    s.nack_armed <- true;
    let vid_at_arm = t.view.View.id in
    ignore
      (Sim.after t.sim t.config.nack_delay (fun () ->
           s.nack_armed <- false;
           if
             t.alive
             && View.Id.equal t.view.View.id vid_at_arm
             && Int_tbl.length s.buffer > 0
           then begin
             let max_buffered =
               (* vslint: allow D2 — commutative fold (max) *)
               Int_tbl.fold (fun seq _ acc -> Int.max seq acc) s.buffer (-1)
             in
             let missing = ref [] in
             for seq = max_buffered - 1 downto s.next do
               if not (Int_tbl.mem s.log seq) then missing := seq :: !missing
             done;
             if !missing <> [] then begin
               t.stats.nacks_sent <- t.stats.nacks_sent + 1;
               unicast t
                 (nack_target t sender s.nack_round)
                 (Wire.Nack { vid = vid_at_arm; sender; missing = !missing });
               s.nack_round <- s.nack_round + 1
             end;
             arm_nack t sender s
           end
           else if Int_tbl.length s.buffer = 0 then s.nack_round <- 0))
  end

let members_iter t f = List.iter f t.view.View.members

(* ---------- batched data plane ----------

   With [config.batching], outgoing data messages are buffered and shipped
   as one {!Wire.Batch} per view member per *flush round*: a round closes
   when it reaches [batch_max] messages or [batch_window] elapses since the
   first buffered message.  Sequence numbers (and therefore identity,
   ordering, flush reports and NACK recovery) were already assigned at
   multicast time, so batching changes only how many wire messages carry
   the stream — never what the stream is.

   Rounds are *pipelined*: when stability gossip is on and
   [pipeline_depth > 0], at most that many shipped rounds may be awaiting
   stability (everyone has delivered our stream past the round's last
   sequence number) before the next round may ship.  [pipeline_depth = 1]
   is classic stop-and-wait flush; larger depths keep the pipe full;
   [pipeline_depth = 0] (or no stability gossip) means open-loop — the
   window/size thresholds alone pace the sender. *)

let new_round () = { items = []; len = 0; timer = None; close = ignore }

let cancel_round_timer r =
  (match r.timer with Some h -> Sim.cancel h | None -> ());
  r.timer <- None

let arm_round t r =
  if r.timer = None then begin
    let vid_at_arm = t.view.View.id in
    r.timer <-
      Some
        (Sim.after t.sim batch_window (fun () ->
             r.timer <- None;
             if t.alive && View.Id.equal t.view.View.id vid_at_arm then
               r.close ()))
  end

let round_add t r x =
  r.items <- x :: r.items;
  r.len <- r.len + 1;
  if r.len >= t.config.batch_max then r.close () else arm_round t r

(* Empty the round, returning its items oldest first. *)
let take_round r =
  let items = List.rev r.items in
  r.items <- [];
  r.len <- 0;
  cancel_round_timer r;
  items

let pipeline_bounded t =
  t.config.pipeline_depth > 0 && t.config.stability_interval <> None

let pipeline_open t =
  (not (pipeline_bounded t))
  || Queue.length t.rounds_inflight < t.config.pipeline_depth

(* Ship the buffered round if allowed.  [force] overrides flow control —
   used at view changes, where everything buffered must reach the wire
   before we block (it is stamped with the old view id and must be in
   flight for the flush protocol to account for it). *)
let batch_try_flush t ~force =
  let r = t.batch in
  if r.len > 0 then begin
    if force || pipeline_open t then begin
      let last_seq =
        match r.items with d :: _ -> d.Wire.seq | [] -> assert false
      in
      let msg = Wire.Batch (take_round r) in
      t.stats.batches_sent <- t.stats.batches_sent + 1;
      if pipeline_bounded t then Queue.add last_seq t.rounds_inflight;
      members_iter t (fun dst -> unicast t dst msg)
    end
    else
      (* Flow control closed: hold the round.  Stability reports retire
         rounds and re-attempt; the timer re-arms as a backstop. *)
      arm_round t r
  end

(* Pop every in-flight round whose last message is now below our own
   stream's stability floor — delivered by every member — then see whether
   a held round may ship.  Called from {!handle_stable_report}. *)
let retire_rounds t =
  if t.config.batching && pipeline_bounded t then begin
    let floor = stability_floor t t.me in
    let continue = ref true in
    while !continue do
      match Queue.peek_opt t.rounds_inflight with
      | Some last_seq when last_seq < floor ->
          ignore (Queue.pop t.rounds_inflight)
      | Some _ | None -> continue := false
    done;
    batch_try_flush t ~force:false
  end

(* Total-order requests batch the same way: a round's payloads carry the
   contiguous request sequence numbers just below [to_seq] and travel in
   one reliable {!Wire.To_batch} envelope to the coordinator, which relays
   element [i] exactly as a {!Wire.To_request} with rseq [rseq0 + i] — one
   control-plane round trip (and one retry timer) per batch instead of per
   operation. *)
let to_batch_flush t =
  let r = t.to_batch in
  if r.len > 0 then begin
    let rseq0 = t.to_seq - r.len in
    let users = take_round r in
    let vid = t.view.View.id in
    let coord = View.coordinator t.view in
    ctl_send t coord
      (Wire.To_batch { vid; rseq0; users })
      ~is_done:(fun () -> not (View.Id.equal t.view.View.id vid))
  end

let send_data t body =
  let d =
    { Wire.vid = t.view.View.id; sender = t.me; seq = t.send_seq; body }
  in
  t.send_seq <- t.send_seq + 1;
  t.stats.data_sent <- t.stats.data_sent + 1;
  if t.config.batching then round_add t t.batch d
  else members_iter t (fun dst -> unicast t dst (Wire.Data d))

let rec multicast t ?(order = Fifo) payload =
  if t.alive then
    match t.phase with
    | Flushing _ -> Queue.add (order, payload) t.pending_out
    | Active -> (
        match order with
        | Fifo -> send_data t (Wire.User payload)
        | Causal ->
            (* Dependency vector in Proc_id order: consumers are
               order-insensitive (List.for_all), but the wire image feeds
               traces and byte-identical replay. *)
            let deps =
              Ptbl.sorted_bindings t.streams
              |> List.filter_map (fun (sender, s) ->
                     if s.next > 0 then Some (sender, s.next) else None)
            in
            send_data t (Wire.Causal { deps; user = payload })
        | Total ->
            if t.config.batching then begin
              t.to_seq <- t.to_seq + 1;
              round_add t t.to_batch payload
            end
            else begin
              let coord = View.coordinator t.view in
              let vid = t.view.View.id in
              let rseq = t.to_seq in
              t.to_seq <- t.to_seq + 1;
              ctl_send t coord (Wire.To_request { vid; rseq; user = payload })
                ~is_done:(fun () -> not (View.Id.equal t.view.View.id vid))
            end)

and flush_pending t =
  let queued = Queue.create () in
  Queue.transfer t.pending_out queued;
  Queue.iter (fun (order, payload) -> multicast t ~order payload) queued

(* ---------- data path ----------

   Every data message enters through [ingest t first rest], where
   [first :: rest] are one sender's consecutive messages of one view: a
   {!Wire.Batch} round, or a lone [Data], retransmitted or stashed message
   as the one-message case.  The stale/stash decision is made once, every
   element is ingested into the stream, then the streams drain *once* —
   the batch's receive-side win, since each drain takes a sorted snapshot
   of all streams. *)

(* Ingest one message of the current view into its sender's stream [s];
   [false] for a duplicate.  A new message is logged, then delivered at
   once if it is next in the stream and causally ready — what [drain_all]
   would deliver first for this stream — or else buffered for the drain. *)
let ingest_one t s ~active (d : 'a Wire.data) =
  if d.Wire.seq < s.next || Int_tbl.mem s.log d.Wire.seq then false
    (* duplicate: already delivered or logged *)
  else begin
    Int_tbl.replace s.log d.Wire.seq d;
    if active && d.Wire.seq = s.next && causally_ready t d then begin
      s.next <- s.next + 1;
      deliver_user t d
    end
    else Int_tbl.replace s.buffer d.Wire.seq d;
    true
  end

let rec ingest_rest t s ~active ingested = function
  | [] -> ingested
  | d :: rest ->
      ingest_rest t s ~active (ingest_one t s ~active d || ingested) rest

let ingest t (first : 'a Wire.data) rest =
  if not (View.Id.equal first.Wire.vid t.view.View.id) then begin
    match t.phase with
    | Flushing pvid when View.Id.equal first.Wire.vid pvid ->
        (* Sent in the view we are about to install; replayed after. *)
        t.stash <- List.rev_append rest (first :: t.stash)
    | Flushing _ | Active -> () (* stale: another view's data *)
  end
  else begin
    let s = stream_for t first.Wire.sender in
    let active = match t.phase with Active -> true | Flushing _ -> false in
    let ingested = ingest_rest t s ~active (ingest_one t s ~active first) rest in
    if active && ingested then begin
      (* Fast-path deliveries may have unblocked buffered messages (this
         stream's backlog, or causal waiters on other streams).  While
         flushing, messages are logged only: re-reported if the flush
         restarts, synchronised by the install otherwise. *)
      drain_all t;
      if Int_tbl.length s.buffer > 0 then arm_nack t first.Wire.sender s
    end
  end

let handle_to_request t ~orig ~rseq ~user =
  match t.phase with
  | Active when Proc_id.equal (View.coordinator t.view) t.me ->
      (* Relay in per-origin request order: requests race on the wire, so
         buffer out-of-order arrivals — Total stays FIFO per origin. *)
      let next, pending =
        match Ptbl.find_opt t.to_streams orig with
        | Some entry -> entry
        | None ->
            let entry = (ref 0, Int_tbl.create 4) in
            Ptbl.replace t.to_streams orig entry;
            entry
      in
      if rseq >= !next then begin
        Int_tbl.replace pending rseq user;
        let contiguous = ref true in
        while !contiguous do
          match Int_tbl.find_opt pending !next with
          | Some u ->
              Int_tbl.remove pending !next;
              incr next;
              send_data t (Wire.Relay { orig; user = u })
          | None -> contiguous := false
        done
      end
  | Active | Flushing _ -> t.stats.to_dropped <- t.stats.to_dropped + 1

(* Total-order requests [user :: rest] from [orig] for view [vid], with
   request sequence numbers [rseq], [rseq + 1], ...: a {!Wire.To_batch},
   or a lone {!Wire.To_request} as the one-request case.  Requests for the
   view we are about to install wait until we have, in case we turn out to
   be its coordinator. *)
let rec receive_requests t ~orig ~vid ~rseq user rest =
  (if View.Id.equal vid t.view.View.id then handle_to_request t ~orig ~rseq ~user
   else
     match t.phase with
     | Flushing pvid when View.Id.equal vid pvid ->
         Queue.add (orig, rseq, user) t.stash_to
     | Flushing _ | Active -> t.stats.to_dropped <- t.stats.to_dropped + 1);
  match rest with
  | [] -> ()
  | user :: rest -> receive_requests t ~orig ~vid ~rseq:(rseq + 1) user rest

(* ---------- membership protocol ---------- *)

let cancel_proposal_timer p =
  match p.p_timer with Some h -> Sim.cancel h | None -> ()

let abandon_proposal t =
  match t.proposal with
  | Some p ->
      cancel_proposal_timer p;
      t.proposal <- None
  | None -> ()

let send_flush_ack t pvid coordinator =
  let seen = all_seen t in
  Sim.emit t.sim
    (Vs_obs.Event.Flush
       {
         proc = t.me;
         vid = pvid;
         seen = List.length seen;
       });
  (* Moot once this flush is over: either the Install for [pvid] arrived
     (phase Active) or a higher proposal superseded it. *)
  ctl_send t coordinator
    (Wire.Flush_ack { pvid; from_view = t.view.View.id; seen; ann = t.ann })
    ~is_done:(fun () ->
      match t.phase with
      | Flushing fvid -> not (View.Id.equal fvid pvid)
      | Active -> true)

let rec handle_target t target =
  if t.alive then begin
    let target = Proc_id.sort target in
    let current = t.view.View.members in
    if Listx.equal_set ~cmp:Proc_id.compare target current then
      (* Membership is already right; drop any proposal in flight. *)
      abandon_proposal t
    else
      match Proc_id.min_member target with
      | Some coord when Proc_id.equal coord t.me -> consider_propose t target
      | Some _ | None -> ()
  end

and consider_propose t target =
  let members =
    if t.config.one_at_a_time then begin
      let stay = Listx.inter ~cmp:Proc_id.compare t.view.View.members target in
      let newcomers = Listx.diff ~cmp:Proc_id.compare target t.view.View.members in
      let admitted = match newcomers with [] -> [] | first :: _ -> [ first ] in
      Proc_id.sort (t.me :: (stay @ admitted))
    end
    else target
  in
  let already_proposing =
    match t.proposal with
    | Some p -> Listx.equal_set ~cmp:Proc_id.compare p.p_members members
    | None -> false
  in
  if (not already_proposing)
     && not (Listx.equal_set ~cmp:Proc_id.compare members t.view.View.members)
  then start_proposal t members

and start_proposal t members =
  abandon_proposal t;
  t.max_epoch <- t.max_epoch + 1;
  let pvid = View.Id.make ~epoch:t.max_epoch ~proposer:t.me in
  let p = { p_vid = pvid; p_members = members; p_acks = Ptbl.create 8; p_timer = None } in
  t.proposal <- Some p;
  Sim.emit t.sim
    (Vs_obs.Event.Propose
       {
         proc = t.me;
         vid = pvid;
         members;
       });
  p.p_timer <-
    Some
      (Sim.after t.sim t.config.flush_timeout (fun () ->
           match t.proposal with
           | Some p' when View.Id.equal p'.p_vid pvid ->
               (* Flush stalled: drop it and retry from the latest target. *)
               t.proposal <- None;
               (match t.est with
               | Some est -> (
                   match Estimator.target est with
                   | Some target -> handle_target t target
                   | None -> ())
               | None -> ())
           | Some _ | None -> ()));
  (* Retried until the member's Flush_ack lands in [p_acks], or this
     proposal is no longer the one in flight. *)
  List.iter
    (fun dst ->
      ctl_send t dst (Wire.Propose { pvid; members })
        ~is_done:(fun () ->
          match t.proposal with
          | Some p when View.Id.equal p.p_vid pvid -> Ptbl.mem p.p_acks dst
          | Some _ | None -> true))
    members

and handle_propose t ~pvid ~members =
  if
    t.alive
    && List.exists (Proc_id.equal t.me) members
    && View.Id.compare pvid t.acked <= 0
  then
    (* Stale proposal (e.g. a freshly recovered proposer with a low epoch):
       tell it what we have accepted so it can outbid immediately instead
       of crawling up one epoch per flush timeout. *)
    unicast t pvid.View.Id.proposer
      (Wire.Propose_reject { pvid; max_vid = t.acked })
  else if
    t.alive
    && List.exists (Proc_id.equal t.me) members
    && View.Id.compare pvid t.acked > 0
  then begin
    t.max_epoch <- Int.max t.max_epoch pvid.View.Id.epoch;
    (* Buffered batches belong to the old view: force them onto the wire
       before blocking, so they are in flight (stamped with the old vid)
       and the flush protocol accounts for them like any other send. *)
    if t.config.batching then begin
      batch_try_flush t ~force:true;
      to_batch_flush t
    end;
    t.acked <- pvid;
    t.phase <- Flushing pvid;
    t.stash <- [];
    Queue.clear t.stash_to;
    (* A competing lower proposal of ours is now dead. *)
    (match t.proposal with
    | Some p when View.Id.compare p.p_vid pvid < 0 -> abandon_proposal t
    | Some _ | None -> ());
    send_flush_ack t pvid pvid.View.Id.proposer
  end

and handle_propose_reject t ~pvid ~max_vid =
  match t.proposal with
  | Some p
    when View.Id.equal p.p_vid pvid && View.Id.compare max_vid p.p_vid > 0 ->
      t.max_epoch <- Int.max t.max_epoch max_vid.View.Id.epoch;
      let members = p.p_members in
      start_proposal t members
  | Some _ | None -> t.max_epoch <- Int.max t.max_epoch max_vid.View.Id.epoch

and handle_flush_ack t ~src ~pvid ~from_view ~seen ~ann =
  match t.proposal with
  | Some p when View.Id.equal p.p_vid pvid && not (Ptbl.mem p.p_acks src) ->
      Ptbl.replace p.p_acks src { a_from = from_view; a_ann = ann; a_seen = seen };
      if List.for_all (fun m -> Ptbl.mem p.p_acks m) p.p_members then
        finalize_proposal t p
  | Some _ | None -> ()

and finalize_proposal t p =
  cancel_proposal_timer p;
  t.proposal <- None;
  let acks =
    List.map
      (fun m ->
        match Ptbl.find_opt p.p_acks m with
        | Some a -> (m, a)
        | None ->
            invalid_arg
              "Endpoint.finalize_proposal: finalized without a flush ack from \
               every member")
      p.p_members
  in
  (* Per prior view, the union of messages seen by its survivors. *)
  let by_prior =
    Listx.group_by
      ~key:(fun (_, a) -> a.a_from)
      ~cmp_key:View.Id.compare acks
  in
  let sync =
    List.map
      (fun (prior_vid, group) ->
        let union =
          List.concat_map (fun (_, a) -> a.a_seen) group
          |> List.sort_uniq Wire.compare_data
        in
        (prior_vid, union))
      by_prior
  in
  let anns = List.map (fun (m, a) -> (m, a.a_ann)) acks in
  let priors = List.map (fun (m, a) -> (m, a.a_from)) acks in
  let new_view = View.make p.p_vid p.p_members in
  let install = Wire.Install { pvid = p.p_vid; view = new_view; sync; anns; priors } in
  (* Retried until acked: the receiver acks on delivery even if it has
     already moved on.  Superseded once something beyond [p_vid] has been
     accepted here (a competing proposal won). *)
  List.iter
    (fun dst ->
      ctl_send t dst install
        ~is_done:(fun () -> View.Id.compare t.acked p.p_vid > 0))
    p.p_members

and handle_install t ~pvid ~view:new_view ~sync ~anns ~priors =
  match t.phase with
  | Flushing fvid when View.Id.equal fvid pvid && t.alive ->
      (* Synchronisation deliveries: everything the survivors of my prior
         view saw that I have not delivered yet, in canonical (sender, seq)
         order.  Messages I received after acking the flush but that no
         survivor reported are skipped — nobody delivered them (Agreement).
      *)
      let my_sync =
        match List.find_opt (fun (vid, _) -> View.Id.equal vid t.view.View.id) sync with
        | Some (_, ds) -> ds
        | None -> []
      in
      let delivered_now = ref 0 in
      let deliver_sync (d : 'a Wire.data) =
        let s = stream_for t d.Wire.sender in
        Int_tbl.replace s.log d.Wire.seq d;
        Int_tbl.remove s.buffer d.Wire.seq;
        s.next <- d.Wire.seq + 1;
        incr delivered_now;
        deliver_user t d
      in
      (* Deliver in passes: per-sender order always, and causal messages
         only once their dependencies are in — a causal message's
         dependencies are necessarily in the synchronisation set (whoever
         reported it had delivered them first), so the passes terminate. *)
      let remaining =
        ref
          (List.filter
             (fun (d : 'a Wire.data) ->
               d.Wire.seq >= (stream_for t d.Wire.sender).next)
             my_sync)
      in
      let progress = ref true in
      while !progress && !remaining <> [] do
        progress := false;
        let blocked = Ptbl.create 4 in
        remaining :=
          List.filter
            (fun (d : 'a Wire.data) ->
              if Ptbl.mem blocked d.Wire.sender then true
              else if causally_ready t d then begin
                deliver_sync d;
                progress := true;
                false
              end
              else begin
                Ptbl.replace blocked d.Wire.sender ();
                true
              end)
            !remaining
      done;
      (* Robustness only — unreachable in correct runs. *)
      List.iter deliver_sync !remaining;
      (* Install the new view. *)
      t.view <- new_view;
      t.phase <- Active;
      t.acked <- new_view.View.id;
      t.max_epoch <- Int.max t.max_epoch new_view.View.id.View.Id.epoch;
      t.send_seq <- 0;
      t.to_seq <- 0;
      Ptbl.reset t.streams;
      Ptbl.reset t.to_streams;
      Ptbl.reset t.stable_vectors;
      t.trim_due <- true;
      t.nack_peers <-
        live_peers_array ~me:t.me ~members:new_view.View.members;
      (* Batch buffers are empty here (forced out at handle_propose;
         multicasts during the flush went to pending_out); the round
         pipeline restarts with the fresh stream. *)
      Queue.clear t.rounds_inflight;
      Sim.emit t.sim
        (Vs_obs.Event.Install
           {
             proc = t.me;
             vid = new_view.View.id;
             members = new_view.View.members;
             sync = !delivered_now;
           });
      flush_pending t;
      t.callbacks.on_view { view = new_view; annotations = anns; priors };
      (* Messages of the new view that raced ahead of the Install. *)
      let stashed = t.stash in
      t.stash <- [];
      List.iter (fun d -> ingest t d []) stashed;
      let stashed_to = Queue.create () in
      Queue.transfer t.stash_to stashed_to;
      Queue.iter
        (fun (orig, rseq, user) -> handle_to_request t ~orig ~rseq ~user)
        stashed_to
  | Flushing _ | Active -> ()

(* Does every entry of [vector] match [table]?  A vector names each sender
   once (it is the reporter's stream table in sender order), so with equal
   sizes this means equal bindings. *)
let rec same_entries table = function
  | [] -> true
  | (sender, n) :: rest -> (
      match Ptbl.find_opt table sender with
      | Some m -> m = n && same_entries table rest
      | None -> false)

(* Record a peer's delivered-prefix vector; then drop every log entry
   below the new floor — those messages are delivered everywhere and no
   flush will ever need them again. *)
let handle_stable_report t ~src ~vid ~vector =
  if View.Id.equal vid t.view.View.id then begin
    (* Index the reporter's vector once; the floor fold then looks senders
       up in O(1) instead of scanning an assoc list per (member, sender).
       Most reports repeat the member's previous vector. *)
    let table =
      match Ptbl.find_opt t.stable_vectors src with
      | Some table -> table
      | None ->
          let table = Ptbl.create (List.length vector) in
          Ptbl.replace t.stable_vectors src table;
          table
    in
    if
      not
        (Ptbl.length table = List.length vector
        && same_entries table vector)
    then begin
      Ptbl.reset table;
      List.iter (fun (sender, n) -> Ptbl.replace table sender n) vector;
      t.trim_due <- true
    end;
    (* Trim each stream's log up to its new stability floor.  The [trimmed]
       watermark makes this incremental: the old code snapshotted and sorted
       every log on every gossip report — O(streams × log size) of pure
       allocation per report even when no floor had moved — which dominated
       the data plane under sustained load.  Sequences below the floor are
       delivered everywhere, so they can never re-enter the log; walking
       [trimmed, floor) visits each stable entry exactly once over the
       stream's lifetime.  Floors and streams only change where [trim_due]
       is set, so without it the pass is skipped. *)
    if t.trim_due then begin
      t.trim_due <- false;
      (* vslint: allow D2 — removal-only sweep over independent streams; trimming commutes *)
      Ptbl.iter
        (fun sender s ->
          let floor = stability_floor t sender in
          if floor > s.trimmed then begin
            for seq = s.trimmed to floor - 1 do
              if Int_tbl.mem s.log seq then begin
                Int_tbl.remove s.log seq;
                t.stats.stabilized <- t.stats.stabilized + 1
              end
            done;
            s.trimmed <- floor
          end)
        t.streams
    end;
    retire_rounds t
  end

let rec stability_tick t interval () =
  if t.alive then begin
    (match t.phase with
    | Active when View.size t.view > 1 ->
        (* The delivered-prefix vector travels on the wire: emit it in
           Proc_id order so identically-seeded runs produce byte-identical
           messages and traces. *)
        let vector =
          Ptbl.sorted_bindings t.streams
          |> List.map (fun (sender, s) -> (sender, s.next))
        in
        let report =
          Wire.Stable_report { vid = t.view.View.id; vector }
        in
        members_iter t (fun dst ->
            if not (Proc_id.equal dst t.me) then unicast t dst report);
        (* our own vector participates directly *)
        handle_stable_report t ~src:t.me ~vid:t.view.View.id ~vector
    | Active | Flushing _ -> ());
    ignore (Sim.after t.sim interval (stability_tick t interval))
  end

(* Serve a retransmission request for [sender]'s stream from our own log of
   it — whoever we are.  Peer-served gaps are what keep a crashed sender's
   tail recoverable before the next flush. *)
let handle_nack t ~src ~vid ~sender ~missing =
  if View.Id.equal vid t.view.View.id then begin
    match Ptbl.find_opt t.streams sender with
    | None -> ()
    | Some s ->
        let found =
          List.filter_map (fun seq -> Int_tbl.find_opt s.log seq) missing
        in
        if found <> [] then begin
          let n = List.length found in
          let peer = not (Proc_id.equal sender t.me) in
          t.stats.retransmits <- t.stats.retransmits + n;
          if peer then
            t.stats.peer_retransmits <- t.stats.peer_retransmits + n;
          Sim.emit t.sim
            (Vs_obs.Event.Retransmit
               {
                 proc = t.me;
                 origin = sender;
                 count = n;
                 peer;
               });
          unicast t src (Wire.Retransmit found)
        end
  end

(* ---------- wiring ---------- *)

let rec handle_payload t ~src payload =
  match payload with
  | Wire.Reliable { rid; payload } ->
      (* Ack every copy — the sender stops once one ack survives the wire —
         then process the inner payload, which is idempotent. *)
      unicast t src (Wire.Ctl_ack { rid });
      handle_payload t ~src payload
  | Wire.Ctl_ack { rid } -> ctl_acked t rid
  | Wire.Heartbeat -> (
      match t.fd with
      | Some fd -> Fd.heartbeat_received fd ~from:src
      | None -> ())
  | Wire.Leave_announce -> (
      match t.fd with Some fd -> Fd.forget fd src | None -> ())
  | Wire.Data d -> ingest t d []
  | Wire.Batch (first :: rest) -> ingest t first rest
  | Wire.To_request { vid; rseq; user } ->
      receive_requests t ~orig:src ~vid ~rseq user []
  | Wire.To_batch { vid; rseq0; users = user :: rest } ->
      receive_requests t ~orig:src ~vid ~rseq:rseq0 user rest
  | Wire.Batch [] | Wire.To_batch { users = []; _ } -> ()
  | Wire.Nack { vid; sender; missing } -> handle_nack t ~src ~vid ~sender ~missing
  | Wire.Stable_report { vid; vector } ->
      handle_stable_report t ~src ~vid ~vector
  | Wire.Retransmit ds -> List.iter (fun d -> ingest t d []) ds
  | Wire.Propose { pvid; members } -> handle_propose t ~pvid ~members
  | Wire.Propose_reject { pvid; max_vid } ->
      handle_propose_reject t ~pvid ~max_vid
  | Wire.Flush_ack { pvid; from_view; seen; ann } ->
      handle_flush_ack t ~src ~pvid ~from_view ~seen ~ann
  | Wire.Install { pvid; view; sync; anns; priors } ->
      handle_install t ~pvid ~view ~sync ~anns ~priors

let handle_envelope t (env : ('a, 'ann) Wire.t Net.envelope) =
  if t.alive then handle_payload t ~src:env.Net.src env.Net.payload

let create sim net ~me:me_ ~universe ~config ~callbacks =
  let t =
    {
      sim;
      net;
      me = me_;
      config;
      rng = Sim.fork_rng sim;
      callbacks;
      view = View.singleton me_;
      phase = Active;
      acked = View.Id.initial me_;
      max_epoch = 0;
      send_seq = 0;
      to_seq = 0;
      to_streams = Ptbl.create 8;
      streams = Ptbl.create 16;
      pending_out = Queue.create ();
      ctl_rid = 0;
      ctl_pending = Int_tbl.create 16;
      stash = [];
      stash_to = Queue.create ();
      ann = None;
      proposal = None;
      fd = None;
      est = None;
      alive = true;
      stable_vectors = Ptbl.create 8;
      trim_due = false;
      nack_peers = [||]; (* singleton initial view: no peers *)
      batch = new_round ();
      rounds_inflight = Queue.create ();
      to_batch = new_round ();
      stats =
        {
          data_sent = 0;
          to_dropped = 0;
          nacks_sent = 0;
          retransmits = 0;
          peer_retransmits = 0;
          stabilized = 0;
          ctl_retries = 0;
          batches_sent = 0;
        };
    }
  in
  t.batch.close <- (fun () -> batch_try_flush t ~force:false);
  t.to_batch.close <- (fun () -> to_batch_flush t);
  Net.register net me_ (fun env -> handle_envelope t env);
  let est =
    Estimator.create sim ~stability:config.stability
      ~nag_period:config.nag_period
      ~achieved:(fun () -> t.view.View.members)
      ~on_target:(fun target -> handle_target t target)
  in
  let fd =
    Fd.create sim ~me:me_ ~universe ~config:config.fd
      ~send_heartbeat:(fun ~dst_node ->
        Net.send_node net ~src:me_ ~dst_node Wire.Heartbeat)
      ~on_change:(fun reachable -> Estimator.update est reachable)
  in
  t.fd <- Some fd;
  t.est <- Some est;
  (match config.stability_interval with
  | Some interval when interval > 0. ->
      ignore (Sim.after sim interval (stability_tick t interval))
  | Some _ | None -> ());
  (* The paper: the first event of a process's history is the view event of
     its initial (singleton) view. *)
  ignore
    (Sim.after sim 0. (fun () ->
         if t.alive then
           t.callbacks.on_view
             {
               view = t.view;
               annotations = [ (me_, t.ann) ];
               priors = [ (me_, t.view.View.id) ];
             }));
  t

let stop_stack t =
  t.alive <- false;
  (match t.fd with Some fd -> Fd.stop fd | None -> ());
  (match t.est with Some est -> Estimator.stop est | None -> ());
  cancel_round_timer t.batch;
  cancel_round_timer t.to_batch;
  ctl_reset t;
  abandon_proposal t

let leave t =
  if t.alive then begin
    List.iter
      (fun (dst : Proc_id.t) ->
        if not (Proc_id.equal dst t.me) then
          unicast t dst Wire.Leave_announce)
      t.view.View.members;
    log_event t "leave";
    stop_stack t;
    Net.crash t.net t.me
  end

let kill t =
  if t.alive then begin
    log_event t "kill";
    stop_stack t;
    Net.crash t.net t.me
  end

(* ---------- transient state corruption (harness-injected) ----------

   A small typed API for the self-stabilization harness: each kind smashes
   one named field of this endpoint's protocol state, deterministically.
   Every kind is recoverable because [handle_install] rebuilds the per-view
   state (sequence counters, streams, stability vectors) and a corrupted
   [acked] is outbid away by [Propose_reject] — the stabilization oracle
   checks that this recovery actually happens within its view bound. *)

type corruption =
  | Seq_skew of int  (** send_seq += k (clamped at 0) *)
  | Stability_smear of int * int
      (** (member node, amount): member's reported prefix for my stream
          += amount (clamped at 0) *)
  | View_skew of int  (** acked view-id epoch += k (clamped at 0) *)
  | Deps_truncate of int * int
      (** (sender node, k): sender's delivered-prefix cursor -= k
          (clamped at 0), forgetting causal dependencies already met *)

let corruption_field = function
  | Seq_skew _ -> "send_seq"
  | Stability_smear _ -> "stable_vectors"
  | View_skew _ -> "acked"
  | Deps_truncate _ -> "stream.next"

(* Corruption targets protocol state held *about* some member; a node number
   that is not in the current view still has to corrupt something
   deterministic, so it falls back to the endpoint itself. *)
let member_for_node t node =
  match
    List.find_opt
      (fun (p : Proc_id.t) -> p.Proc_id.node = node)
      t.view.View.members
  with
  | Some p -> p
  | None -> t.me

let corrupt t (c : corruption) =
  let field = corruption_field c in
  if t.alive then begin
    let detail =
      match c with
      | Seq_skew k ->
          let before = t.send_seq in
          t.send_seq <- Int.max 0 (t.send_seq + k);
          Printf.sprintf "%d -> %d" before t.send_seq
      | Stability_smear (node, amount) ->
          let member = member_for_node t node in
          let table =
            match Ptbl.find_opt t.stable_vectors member with
            | Some table -> table
            | None ->
                let table = Ptbl.create 8 in
                Ptbl.replace t.stable_vectors member table;
                table
          in
          let before =
            match Ptbl.find_opt table t.me with Some n -> n | None -> 0
          in
          let after = Int.max 0 (before + amount) in
          Ptbl.replace table t.me after;
          t.trim_due <- true;
          Printf.sprintf "[%s][%s] %d -> %d"
            (Proc_id.to_string member) (Proc_id.to_string t.me) before after
      | View_skew k ->
          let before = t.acked in
          let epoch = Int.max 0 (before.View.Id.epoch + k) in
          t.acked <- View.Id.make ~epoch ~proposer:before.View.Id.proposer;
          Printf.sprintf "%s -> %s"
            (View.Id.to_string before)
            (View.Id.to_string t.acked)
      | Deps_truncate (node, k) ->
          let sender = member_for_node t node in
          let s = stream_for t sender in
          let before = s.next in
          s.next <- Int.max 0 (s.next - k);
          Printf.sprintf "[%s] %d -> %d" (Proc_id.to_string sender) before
            s.next
    in
    Sim.emit t.sim (Vs_obs.Event.Corrupt { proc = t.me; field; detail });
    log_event t (Printf.sprintf "corrupt %s %s" field detail)
  end;
  field
