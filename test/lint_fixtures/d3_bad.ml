(* Bad: partial operations crash with contextless exceptions. *)
let first xs = List.hd xs
let rest xs = List.tl xs
let forced o = Option.get o
let lookup tbl k = Hashtbl.find tbl k
let lookup_typed tbl k = Tbl.find tbl k
