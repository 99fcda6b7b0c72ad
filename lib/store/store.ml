type t = (int * string, string) Hashtbl.t

let create () : t = Hashtbl.create 64

let put t ~node ~key value = Hashtbl.replace t (node, key) value

let get t ~node ~key = Hashtbl.find_opt t (node, key)

let delete t ~node ~key = Hashtbl.remove t (node, key)

let keys t ~node =
  (* vslint: allow D2 — key projection; the result is sorted by String.compare below *)
  Hashtbl.fold (fun (n, k) _ acc -> if n = node then k :: acc else acc) t []
  |> List.sort_uniq String.compare
