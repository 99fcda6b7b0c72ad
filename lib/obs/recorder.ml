type level = Off | Protocol | Full

let level_to_string = function
  | Off -> "off"
  | Protocol -> "protocol"
  | Full -> "full"

type entry = { time : float; event : Event.t }

(* Storage is an unbounded reversed list; [count] counts every emission and
   doubles as the cache generation stamp. *)
type t = {
  level : level;
  mutable rev_entries : entry list;
  (* Materialized chronological view, rebuilt lazily when [count] moves past
     [cache_count].  Every reader (entries, by_component, tail renderers)
     shares one materialization instead of paying for its own. *)
  mutable count : int;
  mutable cache : entry list;
  mutable cache_count : int;
  (* Live taps: each is called with every recorded event, after storage.
     This is how the vsmon series layer and the vspath causal collector
     observe a run without a second emission path — the empty list (the
     default) leaves [emit] byte-identical to a sink-less recorder.  Sinks
     are keyed by a monotone id so [remove_sink] detaches exactly the
     handle it was given; notification order is registration order. *)
  mutable sinks : (int * (time:float -> Event.t -> unit)) list;
  mutable next_sink : int;
}

let default = ref Protocol

let set_default_level l = default := l

let default_level () = !default

let create ?level () =
  let level = match level with Some l -> l | None -> !default in
  {
    level;
    rev_entries = [];
    count = 0;
    cache = [];
    cache_count = -1;
    sinks = [];
    next_sink = 0;
  }

type sink_handle = int

let add_sink t f =
  let id = t.next_sink in
  t.next_sink <- id + 1;
  (* Append keeps notification order = registration order without paying a
     reversal on the hot path. *)
  t.sinks <- t.sinks @ [ (id, f) ];
  id

let remove_sink t handle =
  t.sinks <- List.filter (fun (id, _) -> id <> handle) t.sinks

let protocol_on t = match t.level with Off -> false | Protocol | Full -> true

(* vslint: alloc-free *)
let full_on t = match t.level with Full -> true | Off | Protocol -> false

(* Tail-recursive sink walk; lifted out of [emit] so the no-sink fast path
   allocates nothing (no closure for the loop). *)
let rec notify_sinks sinks ~time event =
  match sinks with
  | [] -> ()
  | (_, f) :: rest ->
      f ~time event;
      notify_sinks rest ~time event

let emit t ~time event =
  match t.level with
  | Off -> ()
  | Protocol | Full -> (
      t.rev_entries <- { time; event } :: t.rev_entries;
      t.count <- t.count + 1;
      match t.sinks with
      | [] -> ()
      | sinks -> notify_sinks sinks ~time event)

let count t = t.count

let entries t =
  if t.cache_count <> t.count then begin
    t.cache <- List.rev t.rev_entries;
    t.cache_count <- t.count
  end;
  t.cache

let tail ?(limit = 30) t =
  let rec take n acc = function
    | [] -> acc
    | e :: rest -> if n <= 0 then acc else take (n - 1) (e :: acc) rest
  in
  take limit [] t.rev_entries
