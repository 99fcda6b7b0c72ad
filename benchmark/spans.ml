(* Wall-clock reads and the phase spans of a traced run.

   The clock is bechamel's monotonic clock: an unboxed, allocation-free
   read, so timing a call inside the simulator's hot path neither allocates
   nor perturbs the run it measures.  Spans are kept in memory and written
   once, at exit, as Chrome trace JSON (loadable in Perfetto). *)

module Json = Vs_obs.Json

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let seconds ns = float_of_int ns /. 1e9

type span = {
  name : string;
  id : int;
  parent : int;  (* 0 for a top-level span *)
  start_ns : int;
  stop_ns : int;
}

type t = { mutable rev : span list; mutable next : int; origin_ns : int }

let create () = { rev = []; next = 1; origin_ns = now_ns () }

(* Ids are handed out before a span is closed, so its children can name
   their parent while it is still open. *)
let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

let add t ~id ~parent ~name ~start_ns ~stop_ns =
  t.rev <- { name; id; parent; start_ns; stop_ns } :: t.rev

let spans t = List.rev t.rev

let to_chrome t =
  let us ns = Json.Float (float_of_int ns /. 1e3) in
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str "vsbench");
        ("ph", Json.Str "X");
        ("ts", us (s.start_ns - t.origin_ns));
        ("dur", us (s.stop_ns - s.start_ns));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ("args", Json.Obj [ ("id", Json.Int s.id); ("parent", Json.Int s.parent) ]);
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.Arr (List.map event (spans t)));
         ("displayTimeUnit", Json.Str "ms");
       ])
