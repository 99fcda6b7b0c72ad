(* Composable predicates over a materialized event stream.  A query is just
   [entry -> bool]; combinators build slices without re-walking protocol
   state, and [run] preserves stream order, so any result is as deterministic
   as the stream it filters. *)

type t = Recorder.entry -> bool

let all : t = fun _ -> true

let none : t = fun _ -> false

let ( &&& ) (f : t) (g : t) : t = fun e -> f e && g e

let ( ||| ) (f : t) (g : t) : t = fun e -> f e || g e

let any fs : t = fun e -> List.exists (fun f -> f e) fs

let mentions_proc p : t =
 fun e ->
  List.exists (fun q -> Event.compare_proc p q = 0) (Event.procs e.event)

let on_node node : t =
 fun e -> List.exists (fun q -> q.Event.node = node) (Event.procs e.event)

let mentions_vid v : t =
 fun e -> List.exists (fun w -> Event.compare_vid v w = 0) (Event.vids e.event)

let about_msg m : t =
 fun e ->
  match Event.msg_of e.event with
  | Some m' -> Event.compare_msg m m' = 0
  | None -> false

let carries_msg : t = fun e -> Event.msg_of e.event <> None

let of_type name : t = fun e -> String.equal (Event.type_name e.event) name

let of_component c : t = fun e -> String.equal (Event.component e.event) c

let between ~t0 ~t1 : t = fun e -> e.time >= t0 && e.time <= t1

let run (q : t) entries = List.filter q entries

let count (q : t) entries =
  List.fold_left (fun n e -> if q e then n + 1 else n) 0 entries
