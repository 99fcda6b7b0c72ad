(* Unit and property tests for vs_util: PRNG, sorted-set list
   operations and typed hash tables. *)

module Rng = Vs_util.Rng
module Listx = Vs_util.Listx

let check = Alcotest.check

(* ---------- Rng ---------- *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_copy () =
  let a = Rng.create 7L in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  for _ = 1 to 50 do
    check Alcotest.int64 "copy continues identically" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_split_diverges () =
  let a = Rng.create 7L in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int64 a) in
  let ys = List.init 20 (fun _ -> Rng.int64 b) in
  check Alcotest.bool "split stream differs" true (xs <> ys)

let test_rng_float_range () =
  let r = Rng.create 1L in
  for _ = 1 to 1000 do
    let x = Rng.float r in
    check Alcotest.bool "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_rng_int_range () =
  let r = Rng.create 2L in
  for _ = 1 to 1000 do
    let x = Rng.int r 17 in
    check Alcotest.bool "in [0,17)" true (x >= 0 && x < 17)
  done

let test_rng_int_invalid () =
  let r = Rng.create 3L in
  Alcotest.check_raises "bound 0 rejected"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int r 0))

let test_rng_bool_bias () =
  let r = Rng.create 4L in
  let n = 10_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bool r 0.25 then incr hits
  done;
  let ratio = float_of_int !hits /. float_of_int n in
  check Alcotest.bool "ratio near 0.25" true (ratio > 0.20 && ratio < 0.30)

let test_rng_exponential_mean () =
  let r = Rng.create 5L in
  let n = 20_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r 2.0
  done;
  let mean = !sum /. float_of_int n in
  check Alcotest.bool "mean near 2.0" true (mean > 1.9 && mean < 2.1)

let test_rng_pick_and_shuffle () =
  let r = Rng.create 6L in
  let xs = [ 1; 2; 3; 4; 5 ] in
  for _ = 1 to 100 do
    check Alcotest.bool "pick from list" true (List.mem (Rng.pick r xs) xs)
  done;
  let shuffled = Rng.shuffle r xs in
  check (Alcotest.list Alcotest.int) "permutation" xs (List.sort compare shuffled);
  Alcotest.check_raises "pick of empty" (Invalid_argument "Rng.pick: empty list")
    (fun () -> ignore (Rng.pick r []))

(* ---------- Listx ---------- *)

let sorted_int_set = QCheck.(map (Listx.sorted_set ~cmp:compare) (list small_int))

let listx_union_property =
  QCheck.Test.make ~name:"union is sorted-set union" ~count:300
    QCheck.(pair (list small_int) (list small_int))
    (fun (a, b) ->
      let sa = Listx.sorted_set ~cmp:compare a in
      let sb = Listx.sorted_set ~cmp:compare b in
      Listx.union ~cmp:compare sa sb
      = Listx.sorted_set ~cmp:compare (a @ b))

let listx_inter_property =
  QCheck.Test.make ~name:"inter agrees with filter" ~count:300
    QCheck.(pair (list small_int) (list small_int))
    (fun (a, b) ->
      let sa = Listx.sorted_set ~cmp:compare a in
      let sb = Listx.sorted_set ~cmp:compare b in
      Listx.inter ~cmp:compare sa sb = List.filter (fun x -> List.mem x sb) sa)

let listx_diff_property =
  QCheck.Test.make ~name:"diff agrees with filter" ~count:300
    QCheck.(pair (list small_int) (list small_int))
    (fun (a, b) ->
      let sa = Listx.sorted_set ~cmp:compare a in
      let sb = Listx.sorted_set ~cmp:compare b in
      Listx.diff ~cmp:compare sa sb
      = List.filter (fun x -> not (List.mem x sb)) sa)

let listx_subset_property =
  QCheck.Test.make ~name:"subset is inclusion" ~count:300
    QCheck.(pair sorted_int_set sorted_int_set)
    (fun (a, b) ->
      Listx.subset ~cmp:compare a b = List.for_all (fun x -> List.mem x b) a)

let test_listx_group_by () =
  let groups =
    Listx.group_by ~key:(fun x -> x mod 3) ~cmp_key:compare
      [ 1; 2; 3; 4; 5; 6; 7 ]
  in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.list Alcotest.int)))
    "grouped by residue, order kept"
    [ (0, [ 3; 6 ]); (1, [ 1; 4; 7 ]); (2, [ 2; 5 ]) ]
    groups;
  (* A comparator coarser than structural equality: 1 and -1 share a group
     keyed by the first of them, and neither is lost. *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.list Alcotest.int)))
    "coarse comparator keeps every element"
    [ (1, [ 1; -1 ]); (2, [ 2 ]) ]
    (Listx.group_by ~key:Fun.id
       ~cmp_key:(fun a b -> Int.compare (abs a) (abs b))
       [ 1; -1; 2 ])

let test_listx_take_drop () =
  check (Alcotest.list Alcotest.int) "take" [ 1; 2 ] (Listx.take 2 [ 1; 2; 3 ]);
  check (Alcotest.list Alcotest.int) "take beyond" [ 1 ] (Listx.take 5 [ 1 ]);
  check (Alcotest.list Alcotest.int) "drop" [ 3 ] (Listx.drop 2 [ 1; 2; 3 ]);
  check (Alcotest.list Alcotest.int) "drop beyond" [] (Listx.drop 5 [ 1 ])

(* ---------- Hashtblx ---------- *)

(* Typed tables against Stdlib's polymorphic Hashtbl: random operations on
   keys drawn (by index) from a small pool, so most operations hit a bound
   key and shadowing [add]s pile up past the 32 bindings at which a fresh
   (16-bucket) table first resizes.  Each pool holds keys that collide
   under the typed hash. *)
type table_op =
  | Add of int * int
  | Replace of int * int
  | Remove of int
  | Find of int
  | Mem of int
  | Length
  | Reset

let show_table_op = function
  | Add (k, v) -> Printf.sprintf "add %d %d" k v
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Find k -> Printf.sprintf "find %d" k
  | Mem k -> Printf.sprintf "mem %d" k
  | Length -> "length"
  | Reset -> "reset"

let table_ops =
  let open QCheck.Gen in
  let k = int_bound 31 and v = int_bound 9 in
  list_size (int_bound 300)
    (frequency
       [
         (30, map2 (fun k v -> Add (k, v)) k v);
         (15, map2 (fun k v -> Replace (k, v)) k v);
         (10, map (fun k -> Remove k) k);
         (15, map (fun k -> Find k) k);
         (10, map (fun k -> Mem k) k);
         (5, return Length);
         (1, return Reset);
       ])

let matches_model (type k) (module T : Vs_util.Hashtblx.S with type key = k)
    ~(cmp : k -> k -> int) (pool : k array) ops =
  let tbl = T.create 4 and model = Hashtbl.create 4 in
  let key i = pool.(i mod Array.length pool) in
  List.for_all
    (function
      | Add (i, v) ->
          T.add tbl (key i) v;
          Hashtbl.add model (key i) v;
          true
      | Replace (i, v) ->
          T.replace tbl (key i) v;
          Hashtbl.replace model (key i) v;
          true
      | Remove i ->
          T.remove tbl (key i);
          Hashtbl.remove model (key i);
          true
      | Find i -> T.find_opt tbl (key i) = Hashtbl.find_opt model (key i)
      | Mem i -> T.mem tbl (key i) = Hashtbl.mem model (key i)
      | Length -> T.length tbl = Hashtbl.length model
      | Reset ->
          T.reset tbl;
          Hashtbl.reset model;
          true)
    ops
  && T.sorted_bindings tbl = Vs_util.Hashtblx.sorted_bindings ~cmp model
  && T.sorted_keys tbl = Vs_util.Hashtblx.sorted_keys ~cmp model

let table_property ~name table =
  QCheck.Test.make ~name ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_table_op ops))
       table_ops)
    table

(* x and x lxor min_int differ only in the sign bit, which [land max_int]
   clears: every int collides with its partner. *)
let int_pool =
  let base = [ 0; 1; 2; 3; 16; 17; 1 lsl 40; max_int ] in
  Array.of_list (base @ List.map (fun x -> x lxor min_int) base)

(* Several incarnations per node, and (n, 65599 + i) collides with
   (n + 1, i) under [node * 65599 + inc]. *)
let proc_pool =
  let module P = Vs_net.Proc_id in
  Array.of_list
    (List.concat_map
       (fun node -> List.map (fun inc -> P.make ~node ~inc) [ 0; 1; 2 ])
       [ 0; 1; 2; 3 ]
    @ List.map
        (fun (node, inc) -> P.make ~node ~inc)
        [ (0, 65599); (0, 65600); (1, 65599); (2, 65601) ])

let int_tbl_property =
  table_property ~name:"Int_tbl agrees with Hashtbl"
    (matches_model (module Vs_util.Hashtblx.Int_tbl) ~cmp:Int.compare int_pool)

let proc_tbl_property =
  table_property ~name:"Proc_id.Tbl agrees with Hashtbl"
    (matches_model
       (module Vs_net.Proc_id.Tbl)
       ~cmp:Vs_net.Proc_id.compare proc_pool)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "vs_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split diverges" `Quick test_rng_split_diverges;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int invalid bound" `Quick test_rng_int_invalid;
          Alcotest.test_case "bool bias" `Quick test_rng_bool_bias;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "pick and shuffle" `Quick test_rng_pick_and_shuffle;
        ] );
      ( "listx",
        [
          Alcotest.test_case "group_by" `Quick test_listx_group_by;
          Alcotest.test_case "take/drop" `Quick test_listx_take_drop;
          qt listx_union_property;
          qt listx_inter_property;
          qt listx_diff_property;
          qt listx_subset_property;
        ] );
      ("hashtblx", [ qt int_tbl_property; qt proc_tbl_property ]);
    ]
