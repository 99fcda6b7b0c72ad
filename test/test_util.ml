(* Unit and property tests for vs_util: PRNG, sorted-set list
   operations and vector clocks. *)

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
    groups

let test_listx_take_drop () =
  check (Alcotest.list Alcotest.int) "take" [ 1; 2 ] (Listx.take 2 [ 1; 2; 3 ]);
  check (Alcotest.list Alcotest.int) "take beyond" [ 1 ] (Listx.take 5 [ 1 ]);
  check (Alcotest.list Alcotest.int) "drop" [ 3 ] (Listx.drop 2 [ 1; 2; 3 ]);
  check (Alcotest.list Alcotest.int) "drop beyond" [] (Listx.drop 5 [ 1 ])

(* ---------- Vclock ---------- *)

module VC = Vs_util.Vclock.Make (Int)

let test_vclock_basics () =
  let a = VC.tick 1 VC.empty in
  let b = VC.tick 2 VC.empty in
  check Alcotest.int "tick sets 1" 1 (VC.get 1 a);
  check Alcotest.int "absent is 0" 0 (VC.get 2 a);
  check Alcotest.bool "a not leq b" false (VC.leq a b);
  check Alcotest.bool "empty leq all" true (VC.leq VC.empty a);
  let m = VC.merge a b in
  check Alcotest.bool "merge dominates a" true (VC.leq a m);
  check Alcotest.bool "merge dominates b" true (VC.leq b m)

let test_vclock_causality () =
  let base = VC.tick 1 VC.empty in
  let later = VC.tick 2 base in
  let other = VC.tick 3 VC.empty in
  check Alcotest.bool "before" true (VC.compare_causal base later = Vs_util.Vclock.Before);
  check Alcotest.bool "after" true (VC.compare_causal later base = Vs_util.Vclock.After);
  check Alcotest.bool "equal" true (VC.compare_causal base base = Vs_util.Vclock.Equal);
  check Alcotest.bool "concurrent" true
    (VC.compare_causal later other = Vs_util.Vclock.Concurrent)

let vclock_merge_lub_property =
  QCheck.Test.make ~name:"merge is least upper bound" ~count:200
    QCheck.(pair (small_list (int_bound 5)) (small_list (int_bound 5)))
    (fun (ticks_a, ticks_b) ->
      let clock ticks = List.fold_left (fun c k -> VC.tick k c) VC.empty ticks in
      let a = clock ticks_a and b = clock ticks_b in
      let m = VC.merge a b in
      VC.leq a m && VC.leq b m
      && List.for_all
           (fun (k, v) -> v = max (VC.get k a) (VC.get k b))
           (VC.to_list m))

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
      ( "vclock",
        [
          Alcotest.test_case "basics" `Quick test_vclock_basics;
          Alcotest.test_case "causality" `Quick test_vclock_causality;
          qt vclock_merge_lub_property;
        ] );
    ]
