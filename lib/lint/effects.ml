(* Pass 2 of the whole-program analyzer: seed every function with its
   intrinsic effects and propagate them over the call graph to a fixpoint.

   The effect lattice is a flat powerset over five atoms:

     Ambient_time   wall-clock reads (Sys.time, Unix.gettimeofday, ...)
     Ambient_rand   global randomness (the Random module)
     Unix_io        any other Unix.* entry point
     Hash_order     unordered hash-table enumeration (D2's sites)
     Mutation       assignment to mutable state (informational)

   Propagation is [effects f = intrinsic f U (union over callees g of
   effects g)], with two deliberate cuts:

   - the *capability mask*: functions defined in lib/sim/ or
     lib/util/rng.ml do not export Ambient_time/Ambient_rand/Unix_io to
     their callers.  Those two modules are the sanctioned implementation of
     time and randomness — the seam where a real-OS backend will plug in —
     so reaching the clock through them is exactly what C1 certifies.

   - the *allow cut*: an intrinsic seed silenced by a justified allow of
     the corresponding syntactic rule (D1 for ambient, D2 for hash order)
     does not seed: the written justification vouches for the subtree.

   Each (function, effect) pair remembers one provenance step, so a
   violation renders as the full chain to the leaf, e.g.
   [lib/vsync/endpoint.ml:f -> lib/util/x.ml:g -> Unix.gettimeofday]. *)

type eff = Ambient_time | Ambient_rand | Unix_io | Hash_order | Mutation

let eff_to_string = function
  | Ambient_time -> "Ambient_time"
  | Ambient_rand -> "Ambient_rand"
  | Unix_io -> "Unix_io"
  | Hash_order -> "Hash_order"
  | Mutation -> "Mutation"

let eff_order = function
  | Ambient_time -> 0
  | Ambient_rand -> 1
  | Unix_io -> 2
  | Hash_order -> 3
  | Mutation -> 4

let compare_eff a b = Int.compare (eff_order a) (eff_order b)

let is_ambient = function
  | Ambient_time | Ambient_rand | Unix_io -> true
  | Hash_order | Mutation -> false

(* The syntactic rule whose allow comment cuts this effect at the seed. *)
let seed_rule = function
  | Ambient_time | Ambient_rand | Unix_io -> Some "D1"
  | Hash_order -> Some "D2"
  | Mutation -> None

(* Where an effect entered a function: directly at a leaf reference, at a
   mutation site, or through a call to another analyzed function. *)
type origin =
  | Leaf of string * int  (* external name, line *)
  | Via of string * int  (* callee def_id, call-site line *)

(* Intrinsic effect of one external reference, by expanded dotted path. *)
let leaf_effect (c : Callgraph.call) =
  let path = c.Callgraph.c_quals @ [ c.Callgraph.c_name ] in
  match (Lint.ambient_read path, path) with
  | Some Lint.Randomness, _ -> Some Ambient_rand
  | Some Lint.Wall_clock, _ -> Some Ambient_time
  | None, "Unix" :: _ -> Some Unix_io
  | None, path when Lint.hash_enumeration path -> Some Hash_order
  | None, _ -> None

type t = {
  graph : Callgraph.t;
  (* def_id -> effect assoc, first origin wins *)
  effects : (string, (eff * origin) list) Hashtbl.t;
  (* def_id -> why this def may allocate, if it may *)
  allocs : (string, origin) Hashtbl.t;
}

let effects t (d : Callgraph.def) =
  Option.value ~default:[] (Hashtbl.find_opt t.effects (Callgraph.def_id d))

let may_alloc t (d : Callgraph.def) =
  Hashtbl.find_opt t.allocs (Callgraph.def_id d)

(* [seed_allowed ~file ~rule ~line] is true when a justified allow of
   [rule] guards [line] of [file] — the allow cut above. *)
let analyze (graph : Callgraph.t) ~seed_allowed =
  let effects = Hashtbl.create 256 and allocs = Hashtbl.create 256 in
  let add_eff id eff origin =
    let cur = Option.value ~default:[] (Hashtbl.find_opt effects id) in
    if List.mem_assoc eff cur then false
    else begin
      Hashtbl.replace effects id (cur @ [ (eff, origin) ]);
      true
    end
  in
  (* Seeds: intrinsic allocation and leaf effects, in deterministic def
     order. *)
  List.iter
    (fun (d : Callgraph.def) ->
      let id = Callgraph.def_id d in
      (match d.Callgraph.d_allocs with
      | a :: _ ->
          Hashtbl.replace allocs id
            (Leaf (a.Callgraph.a_what, a.Callgraph.a_line))
      | [] -> ());
      if d.Callgraph.d_mutates then
        ignore (add_eff id Mutation (Leaf ("mutation", d.Callgraph.d_line)));
      List.iter
        (fun (c : Callgraph.call) ->
          match leaf_effect c with
          | None -> ()
          | Some eff ->
              let cut =
                match seed_rule eff with
                | Some rule ->
                    seed_allowed ~file:d.Callgraph.d_file ~rule
                      ~line:c.Callgraph.c_line
                | None -> false
              in
              if not cut then
                ignore
                  (add_eff id eff
                     (Leaf (c.Callgraph.c_path, c.Callgraph.c_line))))
        d.Callgraph.d_calls)
    graph.Callgraph.defs;
  (* Fixpoint: propagate callee effects (and allocation) to callers until
     nothing changes.  Rounds iterate the sorted def list, so origins are
     deterministic. *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (d : Callgraph.def) ->
        let id = Callgraph.def_id d in
        List.iter
          (fun (c : Callgraph.call) ->
            List.iter
              (fun (callee : Callgraph.def) ->
                let cid = Callgraph.def_id callee in
                if not (String.equal cid id) then begin
                  let masked = Lint.d1_exempt callee.Callgraph.d_file in
                  List.iter
                    (fun (eff, _) ->
                      if not (masked && is_ambient eff) then
                        if add_eff id eff (Via (cid, c.Callgraph.c_line)) then
                          changed := true)
                    (Option.value ~default:[] (Hashtbl.find_opt effects cid));
                  if
                    Hashtbl.mem allocs cid
                    && not (Hashtbl.mem allocs id)
                  then begin
                    Hashtbl.replace allocs id (Via (cid, c.Callgraph.c_line));
                    changed := true
                  end
                end)
              (Callgraph.resolve graph ~from:d c))
          d.Callgraph.d_calls)
      graph.Callgraph.defs
  done;
  { graph; effects; allocs }

(* ---------- provenance rendering ---------- *)

let find_def t id =
  List.find_opt
    (fun d -> String.equal (Callgraph.def_id d) id)
    t.graph.Callgraph.defs

(* The full chain from [d] to the leaf of a provenance relation — one
   effect's ([fun d -> List.assoc_opt eff (effects t d)]) or allocation's
   ([may_alloc t], A1's provenance):
   "file.ml:f -> file2.ml:g -> Unix.gettimeofday (file2.ml:12)". *)
let chain t origin (d : Callgraph.def) =
  let rec go seen (d : Callgraph.def) =
    let id = Callgraph.def_id d in
    if List.mem id seen then [ id ^ " (cycle)" ]
    else
      match origin d with
      | None -> [ id ]
      | Some (Leaf (name, line)) ->
          [ id; Printf.sprintf "%s (%s:%d)" name d.Callgraph.d_file line ]
      | Some (Via (cid, _)) -> (
          match find_def t cid with
          | Some callee -> id :: go (id :: seen) callee
          | None -> [ id; cid ])
  in
  String.concat " \xe2\x86\x92 " (go [] d)

(* One line per analyzed function that carries any effect — the --chains
   dump. *)
let dump t =
  List.filter_map
    (fun (d : Callgraph.def) ->
      match effects t d with
      | [] -> None
      | effs ->
          let effs =
            List.sort (fun (a, _) (b, _) -> compare_eff a b) effs
          in
          let parts =
            List.map
              (fun (eff, origin) ->
                match origin with
                | Leaf (name, line) ->
                    Printf.sprintf "%s<-%s@%d" (eff_to_string eff) name line
                | Via (cid, line) ->
                    Printf.sprintf "%s<-%s@%d" (eff_to_string eff) cid line)
              effs
          in
          Some
            (Printf.sprintf "%s: %s" (Callgraph.def_id d)
               (String.concat ", " parts)))
    t.graph.Callgraph.defs
