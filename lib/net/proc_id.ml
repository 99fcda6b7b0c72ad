type t = Vs_obs.Event.proc = { node : int; inc : int }
[@@deriving eq, ord, show]

let make ~node ~inc =
  if node < 0 || inc < 0 then invalid_arg "Proc_id.make: negative component";
  { node; inc }

let initial node = make ~node ~inc:0

(* Same order as the derived one, named so callers (and vslint rule D5)
   see a typed comparator rather than Stdlib's polymorphic compare. *)
let compare = Vs_obs.Event.compare_proc

(* [make] rejects negative incarnations, but Net builds the node-addressed
   pseudo-destination { node = 3; inc = -1 } for [send_node]; it prints as
   "n3". *)
let to_string = Vs_obs.Event.proc_to_string

let sort ids = Vs_util.Listx.sorted_set ~cmp:compare ids

let min_member = function
  | [] -> None
  | first :: rest ->
      Some
        (List.fold_left (fun acc p -> if compare p acc < 0 then p else acc)
           first rest)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)

module Tbl = Vs_obs.Event.Proc_tbl
