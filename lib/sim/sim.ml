module Rng = Vs_util.Rng

type handle = {
  thunk : unit -> unit;
  mutable cancelled : bool;  (* also set when it fires: a late cancel is a no-op *)
  owner : t;
}

(* The event queue is a binary min-heap on (fire_at, seq) over positions
   [0 .. size-1] of three flat arrays: [times], [seqs] and [slots].  Each
   queued event owns one slot of [handles], written once at push and reset
   to [sentinel] at pop, so a fired event's closure is not kept alive; the
   slots no queued event owns are stacked in [free.(0 .. capacity-size-1)].
   Sifting moves only unboxed floats and ints: it follows no pointer and
   runs no write barrier. *)
and t = {
  mutable clock : float;
  mutable next_seq : int;
  mutable processed : int;
  mutable live : int;  (* scheduled and not yet fired or cancelled *)
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable handles : handle array;
  mutable free : int array;
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
    { clock = 0.; next_seq = 0; processed = 0; live = 0; times = [||];
      seqs = [||]; slots = [||]; handles = [||]; free = [||]; size = 0;
      sentinel; root_rng = Rng.create seed; obs }
  and sentinel = { thunk = ignore; cancelled = true; owner = t } in
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
let[@inline] earlier (ta : float) (sa : int) (tb : float) (sb : int) =
  ta < tb || (ta = tb && sa < sb)

(* Grow every array (to 16 entries, then by doubling); the new slots form
   the free stack, whose entries past its top are overwritten before they
   are read. *)
let grow t =
  let cap = Array.length t.times in
  let more = Int.max 16 cap in
  let extend a fill = Array.append a (Array.make more fill) in
  t.times <- extend t.times 0.;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.handles <- extend t.handles t.sentinel;
  t.free <- Array.init (cap + more) (fun i -> cap + more - 1 - i)

let[@inline] set t i time seq slot =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.slots.(i) <- slot

let[@inline] move t ~from i = set t i t.times.(from) t.seqs.(from) t.slots.(from)

let push t fire_at seq h =
  if t.size = Array.length t.times then grow t;
  let slot = t.free.(Array.length t.times - t.size - 1) in
  t.handles.(slot) <- h;
  (* Sift the hole at the end up to where (fire_at, seq) belongs. *)
  let i = ref t.size in
  while
    !i > 0 && earlier fire_at seq t.times.((!i - 1) / 2) t.seqs.((!i - 1) / 2)
  do
    move t ~from:((!i - 1) / 2) !i;
    i := (!i - 1) / 2
  done;
  set t !i fire_at seq slot;
  t.size <- t.size + 1

(* Remove the root and free its slot, then sift the hole at the root down
   to where the last entry belongs. *)
let pop_root t =
  let root_slot = t.slots.(0) in
  t.handles.(root_slot) <- t.sentinel;
  t.size <- t.size - 1;
  t.free.(Array.length t.times - t.size - 1) <- root_slot;
  let n = t.size in
  let time = t.times.(n) and seq = t.seqs.(n) in
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    let c =
      if l + 1 < n && earlier t.times.(l + 1) t.seqs.(l + 1) t.times.(l) t.seqs.(l)
      then l + 1
      else l
    in
    if c < n && earlier t.times.(c) t.seqs.(c) time seq then begin
      move t ~from:c !i;
      i := c
    end
    else sifting := false
  done;
  set t !i time seq t.slots.(n)

let root t = t.handles.(t.slots.(0))

(* Cancelled entries are skipped lazily: drop them off the top so the root,
   if any, is the next event to fire. *)
let rec skip_cancelled t =
  if t.size > 0 && (root t).cancelled then begin
    pop_root t;
    skip_cancelled t
  end

let at t fire_at thunk =
  if Float.is_nan fire_at then invalid_arg "Sim.at: time is nan";
  if fire_at < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.at: time %g is in the past (now %g)" fire_at t.clock);
  let h = { thunk; cancelled = false; owner = t } in
  push t fire_at t.next_seq h;
  t.next_seq <- t.next_seq + 1;
  t.live <- t.live + 1;
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
    let h = root t in
    t.clock <- t.times.(0);
    pop_root t;
    h.cancelled <- true;
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
      else if t.times.(0) > horizon then begin
        t.clock <- Float.max t.clock horizon;
        Reached_until
      end
      else begin
        ignore (step t);
        loop (remaining - 1)
      end
    end
  in
  loop budget
