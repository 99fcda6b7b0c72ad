(* Windowed time series over a recorded run — the continuous half of the
   telemetry plane.

   A series folds every observed event into a live [Metrics.deriv] registry
   and, each time an event's timestamp crosses a window boundary, scrapes
   the registry into an immutable snapshot.  Windows are half-open spans of
   simulated time [kΔ, (k+1)Δ); snapshots are cumulative-at-close, so
   per-window deltas fall out by subtracting consecutive snapshots
   ({!delta_counter}).

   Window closing is driven lazily by observed event times rather than by a
   recurring simulator timer: a timer would perturb the event schedule
   (quiescence-based runs would never go idle) and make scrape-on runs
   diverge from scrape-off runs.  With lazy closing the simulation schedule
   is untouched — attaching a series changes no event, no RNG draw, no
   timestamp — and the snapshot sequence is a pure function of the recorded
   stream, hence byte-deterministic across identically-seeded runs.  The
   cost is that a window only closes when a later event (or {!finish})
   proves the stream has moved past it, which is the right semantics for a
   discrete-event world: nothing happened in between.

   Snapshots live in a fixed ring of 1024 windows: long runs keep the newest
   windows, and [count] exceeding [capacity] signals truncation. *)

type snapshot = {
  window : int;  (* index k: the span [kΔ, (k+1)Δ) *)
  t_start : float;
  t_end : float;
  scrape : Metrics.scrape;  (* cumulative at window close *)
}

type t = {
  interval : float;
  deriv : Metrics.deriv;
  ring : snapshot option array;
  mutable ring_pos : int;  (* next write index *)
  mutable count : int;  (* snapshots ever taken *)
  mutable window : int;  (* index of the window currently accumulating *)
  mutable events : int;  (* events observed, for the idle fast path *)
  mutable finished : bool;
}

let default_interval = 0.5

let ring_size = 1024

let create ?(interval = default_interval) () =
  if not (interval > 0.) then
    invalid_arg "Series.create: interval must be > 0";
  {
    interval;
    deriv = Metrics.deriv_create ();
    ring = Array.make ring_size None;
    ring_pos = 0;
    count = 0;
    window = 0;
    events = 0;
    finished = false;
  }

let capacity t = Array.length t.ring

let count t = t.count

let metrics t = Metrics.deriv_metrics t.deriv

let scrape t ~window =
  {
    window;
    t_start = float_of_int window *. t.interval;
    t_end = float_of_int (window + 1) *. t.interval;
    scrape = Metrics.scrape (metrics t);
  }

let push t snap =
  t.ring.(t.ring_pos) <- Some snap;
  t.ring_pos <- (t.ring_pos + 1) mod Array.length t.ring;
  t.count <- t.count + 1

let window_of t time = int_of_float (floor (time /. t.interval))

(* Close every window strictly before [upto]: each closes with the registry
   exactly as the events before its end boundary left it (events arrive in
   non-decreasing time order). *)
let close_until t ~upto =
  while t.window < upto do
    push t (scrape t ~window:t.window);
    t.window <- t.window + 1
  done

let observe t ~time event =
  if not t.finished then begin
    let w = window_of t time in
    if w > t.window then close_until t ~upto:w;
    t.events <- t.events + 1;
    Metrics.step t.deriv ~time event
  end

let finish t ~now =
  if not t.finished then begin
    t.finished <- true;
    (* Close through the window containing [now], so the final partial
       window's activity is captured at its full logical boundary. *)
    if t.events > 0 || now > 0. then close_until t ~upto:(window_of t now + 1)
  end

let snapshots t =
  let cap = Array.length t.ring in
  let stored = min t.count cap in
  let start = ((t.ring_pos - stored) mod cap + cap) mod cap in
  List.filter_map
    (fun i -> t.ring.((start + i) mod cap))
    (List.init stored (fun i -> i))

(* Per-window delta of a cumulative counter: this window's close minus the
   previous window's ([prev = None] means the first retained window, where
   the cumulative value is the delta). *)
let delta_counter ~prev snap name =
  let get s =
    match List.assoc_opt name s.scrape.Metrics.s_counters with
    | Some v -> v
    | None -> 0
  in
  get snap - match prev with Some p -> get p | None -> 0

(* --- rendering ----------------------------------------------------------- *)

let snapshot_to_json (s : snapshot) =
  Json.Obj
    (("window", Json.Int s.window)
    :: ("t_start", Json.Float s.t_start)
    :: ("t_end", Json.Float s.t_end)
    :: Metrics.scrape_fields s.scrape)

let to_json t =
  Json.Obj
    [
      ("interval", Json.Float t.interval);
      ("windows", Json.Int t.count);
      ("truncated", Json.Bool (t.count > Array.length t.ring));
      ("snapshots", Json.Arr (List.map snapshot_to_json (snapshots t)));
    ]

(* The per-window table: protocol activity deltas plus the paper's
   cost-model percentiles, one row per retained window. *)
let delta_columns =
  [ "net.sends"; "gms.proposes"; "gms.installs"; "vsync.retransmits" ]

let to_table t =
  let table =
    Vs_stats.Table.create
      ~title:
        (Printf.sprintf "series: per-window telemetry (interval %g s)"
           t.interval)
      ~columns:
        ([ "window"; "span (s)" ]
        @ List.map (fun c -> "Δ " ^ c) delta_columns
        @ [ "install p99"; "stall p99" ])
  in
  let pct name s =
    match List.assoc_opt name s.scrape.Metrics.s_hists with
    | Some h when h.Metrics.h_n > 0 ->
        Vs_stats.Table.ffloat ~decimals:4 h.Metrics.h_p99
    | Some _ | None -> "-"
  in
  let rec rows prev = function
    | [] -> ()
    | (s : snapshot) :: rest ->
        Vs_stats.Table.add_row table
          ([
             Vs_stats.Table.fint s.window;
             Printf.sprintf "%g-%g" s.t_start s.t_end;
           ]
          @ List.map
              (fun c -> Vs_stats.Table.fint (delta_counter ~prev s c))
              delta_columns
          @ [ pct "view.install-latency" s; pct "view.flush-stall" s ]);
        rows (Some s) rest
  in
  rows None (snapshots t);
  table
