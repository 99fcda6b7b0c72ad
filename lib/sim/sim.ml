module Rng = Vs_util.Rng
module Heap = Vs_util.Heap

type handle = {
  fire_at : float;
  seq : int;
  thunk : unit -> unit;
  mutable cancelled : bool;
  owner : t;
}

and t = {
  mutable clock : float;
  mutable next_seq : int;
  mutable processed : int;
  mutable live : int;  (* scheduled and not yet fired or cancelled *)
  queue : handle Heap.t;
  root_rng : Rng.t;
  obs : Vs_obs.Recorder.t;
  series : Vs_obs.Series.t option;
}

let compare_handle a b =
  let c = Float.compare a.fire_at b.fire_at in
  if c <> 0 then c else Int.compare a.seq b.seq

let create ?(seed = 1L) ?obs ?series () =
  let obs =
    match obs with Some r -> r | None -> Vs_obs.Recorder.create ()
  in
  (* The vsmon series taps the recorded stream via the recorder sink: off
     (None) by default, and when on it only reads timestamps already chosen
     by the schedule — no timers, no RNG draws — so attaching it leaves the
     run byte-identical. *)
  (match series with
  | None -> ()
  | Some s ->
      ignore
        (Vs_obs.Recorder.add_sink obs (Vs_obs.Series.observe s)
          : Vs_obs.Recorder.sink_handle));
  {
    clock = 0.;
    next_seq = 0;
    processed = 0;
    live = 0;
    queue = Heap.create ~cmp:compare_handle;
    root_rng = Rng.create seed;
    obs;
    series;
  }

let now t = t.clock

let rng t = t.root_rng

let fork_rng t = Rng.split t.root_rng

let obs t = t.obs

let series t = t.series

let finish_series t =
  match t.series with
  | None -> ()
  | Some s -> Vs_obs.Series.finish s ~now:t.clock

let emit t event = Vs_obs.Recorder.emit t.obs ~time:t.clock event

let obs_on t = Vs_obs.Recorder.protocol_on t.obs

(* vslint: alloc-free *)
let obs_full t = Vs_obs.Recorder.full_on t.obs

let record t ~component message =
  emit t (Vs_obs.Event.Note { component; message })

let at t fire_at thunk =
  if fire_at < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.at: time %g is in the past (now %g)" fire_at t.clock);
  let h = { fire_at; seq = t.next_seq; thunk; cancelled = false; owner = t } in
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  Heap.push t.queue h;
  h

let after t delay thunk =
  if delay < 0. then invalid_arg "Sim.after: negative delay";
  at t (t.clock +. delay) thunk

let cancel h =
  if not h.cancelled then begin
    h.cancelled <- true;
    h.owner.live <- h.owner.live - 1
  end

(* Cancelled entries are skipped lazily on pop; the live count is maintained
   eagerly on push/cancel/fire so this is O(1). *)
let pending t = t.live

let events_processed t = t.processed

type stop_reason = Quiescent | Reached_until | Event_budget

let step t =
  let rec pop () =
    match Heap.pop t.queue with
    | None -> None
    | Some h when h.cancelled -> pop ()
    | Some h -> Some h
  in
  match pop () with
  | None -> false
  | Some h ->
      t.clock <- h.fire_at;
      t.processed <- t.processed + 1;
      t.live <- t.live - 1;
      h.thunk ();
      true

let run ?until ?max_events t =
  let budget = match max_events with Some n -> n | None -> max_int in
  let horizon = match until with Some u -> u | None -> infinity in
  let rec loop remaining =
    if remaining <= 0 then Event_budget
    else
      let next_time =
        let rec peek () =
          match Heap.peek t.queue with
          | Some h when h.cancelled ->
              ignore (Heap.pop t.queue);
              peek ()
          | Some h -> Some h.fire_at
          | None -> None
        in
        peek ()
      in
      match next_time with
      | None -> Quiescent
      | Some ft when ft > horizon ->
          t.clock <- max t.clock horizon;
          Reached_until
      | Some _ ->
          ignore (step t);
          loop (remaining - 1)
  in
  loop budget
