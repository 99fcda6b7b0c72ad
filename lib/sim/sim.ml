module Rng = Vs_util.Rng

type handle = {
  fire_at : float;
  seq : int;
  thunk : unit -> unit;
  mutable cancelled : bool;  (* also set when it fires: a late cancel is a no-op *)
  owner : t;
}

(* The event queue is a binary min-heap of handles on (fire_at, seq), held
   in [heap.(0 .. size-1)].  Slots at and above [size] hold [sentinel], so a
   fired event's closure is not kept alive by the array. *)
and t = {
  mutable clock : float;
  mutable next_seq : int;
  mutable processed : int;
  mutable live : int;  (* scheduled and not yet fired or cancelled *)
  mutable heap : handle array;
  mutable size : int;
  sentinel : handle;
  root_rng : Rng.t;
  obs : Vs_obs.Recorder.t;
}

let create ?(seed = 1L) ?obs () =
  let obs =
    match obs with Some r -> r | None -> Vs_obs.Recorder.create ()
  in
  let rec t =
    { clock = 0.; next_seq = 0; processed = 0; live = 0; heap = [||];
      size = 0; sentinel; root_rng = Rng.create seed; obs }
  and sentinel =
    { fire_at = infinity; seq = max_int; thunk = ignore; cancelled = true;
      owner = t }
  in
  t.heap <- Array.make 16 sentinel;
  t

let now t = t.clock

let rng t = t.root_rng

let fork_rng t = Rng.split t.root_rng

let obs t = t.obs

let emit t event = Vs_obs.Recorder.emit t.obs ~time:t.clock event

let obs_on t = Vs_obs.Recorder.protocol_on t.obs

(* vslint: alloc-free *)
let obs_full t = Vs_obs.Recorder.full_on t.obs

let record t ~component message =
  emit t (Vs_obs.Event.Note { component; message })

(* Times are never NaN (see [at] and [run]), so [<] and [=] give the same
   strict total order as [Float.compare] with [seq] breaking ties. *)
let[@inline] earlier a b =
  a.fire_at < b.fire_at || (a.fire_at = b.fire_at && a.seq < b.seq)

let rec sift_up heap i h =
  let parent = (i - 1) / 2 in
  if i > 0 && earlier h heap.(parent) then begin
    heap.(i) <- heap.(parent);
    sift_up heap parent h
  end
  else heap.(i) <- h

let rec sift_down heap size i h =
  let l = (2 * i) + 1 in
  if l >= size then heap.(i) <- h
  else
    let c = if l + 1 < size && earlier heap.(l + 1) heap.(l) then l + 1 else l in
    if earlier heap.(c) h then begin
      heap.(i) <- heap.(c);
      sift_down heap size c h
    end
    else heap.(i) <- h

let push t h =
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * t.size) t.sentinel in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  t.size <- t.size + 1;
  sift_up t.heap (t.size - 1) h

let pop_root t =
  t.size <- t.size - 1;
  let last = t.heap.(t.size) in
  t.heap.(t.size) <- t.sentinel;
  if t.size > 0 then sift_down t.heap t.size 0 last

(* Cancelled entries are skipped lazily: drop them off the top so the root,
   if any, is the next event to fire. *)
let rec skip_cancelled t =
  if t.size > 0 && t.heap.(0).cancelled then begin
    pop_root t;
    skip_cancelled t
  end

let at t fire_at thunk =
  if Float.is_nan fire_at then invalid_arg "Sim.at: time is nan";
  if fire_at < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.at: time %g is in the past (now %g)" fire_at t.clock);
  let h = { fire_at; seq = t.next_seq; thunk; cancelled = false; owner = t } in
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
  push t h;
  h

let after t delay thunk =
  if not (delay >= 0.) then invalid_arg "Sim.after: delay is negative or nan";
  at t (t.clock +. delay) thunk

let cancel h =
  if not h.cancelled then begin
    h.cancelled <- true;
    h.owner.live <- h.owner.live - 1
  end

(* The live count is maintained eagerly on push/cancel/fire, so this is
   O(1). *)
let pending t = t.live

let events_processed t = t.processed

type stop_reason = Quiescent | Reached_until | Event_budget

let step t =
  skip_cancelled t;
  if t.size = 0 then false
  else begin
    let h = t.heap.(0) in
    pop_root t;
    h.cancelled <- true;
    t.clock <- h.fire_at;
    t.processed <- t.processed + 1;
    t.live <- t.live - 1;
    h.thunk ();
    true
  end

let run ?until ?max_events t =
  let budget = match max_events with Some n -> n | None -> max_int in
  let horizon = match until with Some u -> u | None -> infinity in
  if Float.is_nan horizon then invalid_arg "Sim.run: until is nan";
  let rec loop remaining =
    if remaining <= 0 then Event_budget
    else begin
      skip_cancelled t;
      if t.size = 0 then Quiescent
      else if t.heap.(0).fire_at > horizon then begin
        t.clock <- max t.clock horizon;
        Reached_until
      end
      else begin
        ignore (step t);
        loop (remaining - 1)
      end
    end
  in
  loop budget
