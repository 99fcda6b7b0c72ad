(* Bad: raw Hashtbl enumeration feeds the caller in hash-bucket order. *)
let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []
let visit tbl f = Hashtbl.iter (fun k v -> f k v) tbl
(* Typed tables enumerate in bucket order too. *)
let visit_procs tbl f = Proc_id.Tbl.iter (fun p v -> f p v) tbl
let seqs tbl = Int_tbl.fold (fun seq _ acc -> seq :: acc) tbl []
