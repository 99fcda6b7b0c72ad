(* Tests for the group objects: the replicated counter, the quorum-voted
   file (paper example 1), the parallel-lookup database (paper example 2),
   the mergeable KV store, the state-transfer strategies and the
   last-to-fail decision procedure. *)

module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module Mode = Evs_core.Mode
module Endpoint = Vs_vsync.Endpoint
module Store = Vs_store.Store
module Go = Vs_apps.Group_object
module Counter = Vs_apps.Counter
module Rf = Vs_apps.Replicated_file
module Pdb = Vs_apps.Parallel_db
module Kv = Vs_apps.Kv_store
module St = Vs_apps.State_transfer
module Ltf = Vs_apps.Last_to_fail
module E_view = Evs_core.E_view
module Classify = Evs_core.Classify
module Event = Vs_obs.Event
module Recorder = Vs_obs.Recorder
module Faults = Vs_harness.Faults
module App_fleet = Vs_exp.App_fleet

let check = Alcotest.check

let cfg = Endpoint.default_config

(* ---------- Counter ---------- *)

let counter_cluster ?(seed = 13L) n =
  let sim = Sim.create ~seed () in
  let net = Counter.make_net sim Net.default_config in
  let universe = List.init n (fun i -> i) in
  let cs =
    List.map
      (fun node ->
        Counter.create sim net ~me:(Proc_id.initial node) ~universe ~config:cfg ())
      universe
  in
  (sim, net, cs)

let test_counter_quickstart () =
  let sim, _net, cs = counter_cluster 3 in
  ignore (Sim.run ~until:1.0 sim);
  List.iter
    (fun c ->
      check Alcotest.bool "serving" true
        (Mode.equal (Go.mode (Counter.obj c)) Mode.Normal))
    cs;
  (match Counter.increment (List.hd cs) ~by:5 with
  | Ok () -> ()
  | Error `Not_serving -> Alcotest.fail "increment refused in Normal mode");
  ignore (Sim.run ~until:1.5 sim);
  List.iter (fun c -> check Alcotest.int "replicated" 5 (Counter.value c)) cs

let test_counter_refuses_while_settling () =
  let sim, net, cs = counter_cluster 3 in
  ignore (Sim.run ~until:1.0 sim);
  (* A partition provokes settling at its survivors for a moment. *)
  Net.set_partition net [ [ 0 ]; [ 1; 2 ] ];
  ignore (Sim.run ~until:1.18 sim);
  (* Whichever process is settling during the reconfiguration window must
     refuse external operations. *)
  List.iter
    (fun c ->
      match (Go.mode (Counter.obj c), Counter.increment c ~by:1) with
      | Mode.Settling, Error `Not_serving -> ()
      | Mode.Settling, Ok () -> Alcotest.fail "served while settling"
      | (Mode.Normal | Mode.Reduced), _ -> ())
    cs;
  ignore (Sim.run ~until:3.0 sim)

let test_counter_divergence_merges_to_max () =
  let sim, net, cs = counter_cluster 3 in
  ignore (Sim.run ~until:1.0 sim);
  ignore (Counter.increment (List.hd cs) ~by:2);
  ignore (Sim.run ~until:1.3 sim);
  Net.set_partition net [ [ 0 ]; [ 1; 2 ] ];
  ignore (Sim.run ~until:2.3 sim);
  (match cs with
  | c0 :: c1 :: _ ->
      ignore (Counter.increment c0 ~by:10);
      ignore (Counter.increment c1 ~by:100)
  | _ -> assert false);
  ignore (Sim.run ~until:2.8 sim);
  Net.heal net;
  ignore (Sim.run ~until:4.5 sim);
  List.iter
    (fun c ->
      check Alcotest.int "high-water mark wins" 102 (Counter.value c);
      check Alcotest.bool "back to Normal" true
        (Mode.equal (Go.mode (Counter.obj c)) Mode.Normal))
    cs

let test_counter_join_transfer () =
  let sim = Sim.create ~seed:14L () in
  let net = Counter.make_net sim Net.default_config in
  let universe = [ 0; 1; 2 ] in
  let c0 = Counter.create sim net ~me:(Proc_id.initial 0) ~universe ~config:cfg () in
  let c1 = Counter.create sim net ~me:(Proc_id.initial 1) ~universe ~config:cfg () in
  ignore (Sim.run ~until:1.0 sim);
  ignore (Counter.increment c0 ~by:7);
  ignore (Sim.run ~until:1.3 sim);
  (* Late joiner must pick up the value through the settle protocol. *)
  let c2 = Counter.create sim net ~me:(Proc_id.initial 2) ~universe ~config:cfg () in
  ignore (Sim.run ~until:3.0 sim);
  check Alcotest.int "joiner transferred" 7 (Counter.value c2);
  check Alcotest.int "others unchanged" 7 (Counter.value c1);
  (* Figure-1 discipline held throughout. *)
  List.iter
    (fun c ->
      List.iter
        (fun (step : Mode.Machine.step) ->
          check Alcotest.bool "legal transition" true
            (Mode.is_legal ~from:step.Mode.Machine.from_mode
               ~into:step.Mode.Machine.into_mode))
        (Mode.Machine.history (Go.machine (Counter.obj c))))
    [ c0; c1; c2 ]

(* The Section 3 formalism, checked on real runs: every process history
   starts with the view event of joining the group, its installed views are
   monotone, and mode events follow only legal Figure-1 edges. *)
let test_histories_well_formed () =
  let sim = Sim.create ~seed:33L () in
  let net = Counter.make_net sim Net.default_config in
  let universe = [ 0; 1; 2 ] in
  let c0 = Counter.create sim net ~me:(Proc_id.initial 0) ~universe ~config:cfg () in
  let c1 = Counter.create sim net ~me:(Proc_id.initial 1) ~universe ~config:cfg () in
  let c2 = Counter.create sim net ~me:(Proc_id.initial 2) ~universe ~config:cfg () in
  ignore (Sim.run ~until:1.0 sim);
  ignore (Counter.increment c0 ~by:1);
  ignore (Sim.run ~until:1.5 sim);
  Go.kill (Counter.obj c2);
  ignore (Sim.run ~until:2.5 sim);
  let c2' = Counter.create sim net ~me:(Proc_id.make ~node:2 ~inc:1) ~universe ~config:cfg () in
  ignore (Sim.run ~until:4.0 sim);
  List.iter
    (fun c ->
      let h = Go.history (Counter.obj c) in
      let module History = Evs_core.History in
      check Alcotest.bool "first event is a view event (Section 3)" true
        (History.first_event_is_view h);
      let views = History.views h in
      let rec monotone = function
        | (a : View.t) :: (b : View.t) :: rest ->
            View.Id.compare a.View.id b.View.id < 0 && monotone (b :: rest)
        | _ -> true
      in
      check Alcotest.bool "installed views monotone" true (monotone views);
      check Alcotest.bool "history non-trivial" true (History.length h > 1))
    [ c0; c1; c2; c2' ]

(* ---------- Replicated file ---------- *)

let file_cluster ?(seed = 15L) ?votes n =
  let sim = Sim.create ~seed () in
  let net = Rf.make_net sim Net.default_config in
  let universe = List.init n (fun i -> i) in
  let store = Store.create () in
  let file =
    match votes with Some f -> f | None -> Rf.uniform_votes ~universe
  in
  let mk node inc =
    Rf.create sim net ~me:(Proc_id.make ~node ~inc) ~universe ~config:cfg ~file
      ~store ()
  in
  let fs = List.map (fun node -> mk node 0) universe in
  (sim, net, store, mk, fs)

let test_file_one_copy_semantics () =
  let sim, _net, _store, _mk, fs = file_cluster 5 in
  ignore (Sim.run ~until:1.0 sim);
  (match Rf.write (List.hd fs) "alpha" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "quorum write refused");
  ignore (Sim.run ~until:1.5 sim);
  List.iter
    (fun f ->
      match Rf.read f with
      | Ok (content, version) ->
          check Alcotest.string "content" "alpha" content;
          check Alcotest.int "version" 1 version
      | Error _ -> Alcotest.fail "read refused in Normal mode")
    fs

let test_file_minority_reduced () =
  let sim, net, _store, _mk, fs = file_cluster 5 in
  ignore (Sim.run ~until:1.0 sim);
  ignore (Rf.write (List.hd fs) "alpha");
  ignore (Sim.run ~until:1.5 sim);
  Net.set_partition net [ [ 0; 1 ]; [ 2; 3; 4 ] ];
  ignore (Sim.run ~until:2.5 sim);
  let minority = List.hd fs and majority = List.nth fs 2 in
  check Alcotest.bool "minority reduced" true
    (Mode.equal (Go.mode (Rf.obj minority)) Mode.Reduced);
  check Alcotest.bool "majority normal" true
    (Mode.equal (Go.mode (Rf.obj majority)) Mode.Normal);
  (* Writes only with the quorum; reads everywhere (stale allowed). *)
  check Alcotest.bool "minority write refused" true
    (Rf.write minority "bad" = Error `Not_serving);
  (match Rf.write majority "beta" with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "majority write refused");
  ignore (Sim.run ~until:3.0 sim);
  (match Rf.read minority with
  | Ok (content, _) -> check Alcotest.string "stale read allowed" "alpha" content
  | Error _ -> Alcotest.fail "minority read refused");
  (* Heal: the minority catches up. *)
  Net.heal net;
  ignore (Sim.run ~until:5.0 sim);
  List.iter
    (fun f ->
      match Rf.read f with
      | Ok (content, version) ->
          check Alcotest.string "caught up" "beta" content;
          check Alcotest.int "version 2" 2 version
      | Error _ -> Alcotest.fail "read refused after heal")
    fs

let test_file_total_failure_recreation () =
  let sim, _net, _store, mk, fs = file_cluster ~seed:16L 3 in
  ignore (Sim.run ~until:1.0 sim);
  ignore (Rf.write (List.hd fs) "persistent");
  ignore (Sim.run ~until:1.5 sim);
  List.iter (fun f -> Go.kill (Rf.obj f)) fs;
  ignore (Sim.run ~until:2.0 sim);
  (* Everyone recovers as a new incarnation; the persisted replicas carry
     the state across the total failure (state creation). *)
  let fs' = List.map (fun node -> mk node 1) [ 0; 1; 2 ] in
  ignore (Sim.run ~until:4.0 sim);
  List.iter
    (fun f ->
      check Alcotest.bool "serving again" true
        (Mode.equal (Go.mode (Rf.obj f)) Mode.Normal);
      match Rf.read f with
      | Ok (content, _) -> check Alcotest.string "recreated" "persistent" content
      | Error _ -> Alcotest.fail "read refused after recreation")
    fs'

let test_file_weighted_votes () =
  (* Node 0 holds 3 votes of 5: it forms a quorum alone. *)
  let votes = { Rf.votes = (fun node -> if node = 0 then 3 else 1); total_votes = 5 } in
  let sim, net, _store, _mk, fs = file_cluster ~seed:17L ~votes 3 in
  ignore (Sim.run ~until:1.0 sim);
  Net.set_partition net [ [ 0 ]; [ 1; 2 ] ];
  ignore (Sim.run ~until:2.5 sim);
  let heavy = List.hd fs and light = List.nth fs 1 in
  check Alcotest.bool "weighted node keeps quorum alone" true
    (Mode.equal (Go.mode (Rf.obj heavy)) Mode.Normal);
  check Alcotest.bool "two light nodes lack quorum" true
    (Mode.equal (Go.mode (Rf.obj light)) Mode.Reduced);
  check Alcotest.bool "write succeeds at heavy node" true
    (Rf.write heavy "solo" = Ok ())

let test_file_concurrent_writes_ordered () =
  let sim, _net, _store, _mk, fs = file_cluster ~seed:18L 3 in
  ignore (Sim.run ~until:1.0 sim);
  (* Two concurrent writers: total order makes every replica apply both in
     the same order, reaching version 2 with identical content. *)
  ignore (Rf.write (List.nth fs 1) "from-p1");
  ignore (Rf.write (List.nth fs 2) "from-p2");
  ignore (Sim.run ~until:1.5 sim);
  let contents =
    List.map
      (fun f -> match Rf.read f with Ok (c, v) -> (c, v) | Error _ -> ("", -1))
      fs
  in
  match contents with
  | (c0, v0) :: rest ->
      check Alcotest.int "two versions applied" 2 v0;
      List.iter
        (fun (c, v) ->
          check Alcotest.string "replicas agree" c0 c;
          check Alcotest.int "versions agree" v0 v)
        rest
  | [] -> assert false

(* ---------- Parallel database ---------- *)

let expected_hits keyspace needle =
  List.filter (fun k -> (k * 37 + 11) mod 256 = needle) (List.init keyspace Fun.id)

let test_pdb_lookup_exact_coverage () =
  let sim = Sim.create ~seed:19L () in
  let net = Pdb.make_net sim Net.default_config in
  let universe = [ 0; 1; 2 ] in
  let keyspace = 1000 in
  let dbs =
    List.map
      (fun node ->
        Pdb.create sim net ~me:(Proc_id.initial node) ~universe ~config:cfg
          ~keyspace ())
      universe
  in
  ignore (Sim.run ~until:1.0 sim);
  List.iter
    (fun db -> check Alcotest.bool "has a range" true (Pdb.my_range db <> None))
    dbs;
  let issuer = List.hd dbs in
  let qid =
    match Pdb.lookup issuer ~needle:48 with
    | Ok qid -> qid
    | Error `Not_serving -> Alcotest.fail "lookup refused in stable view"
  in
  ignore (Sim.run ~until:1.5 sim);
  match Pdb.result_of issuer qid with
  | Ok hits ->
      check (Alcotest.list Alcotest.int) "exactly the matching keys"
        (expected_hits keyspace 48) hits
  | Error `Pending -> Alcotest.fail "coverage incomplete in stable view"

let test_pdb_ranges_partition_keyspace () =
  let sim = Sim.create ~seed:20L () in
  let net = Pdb.make_net sim Net.default_config in
  let universe = [ 0; 1; 2; 3 ] in
  let keyspace = 103 (* deliberately not divisible *) in
  let dbs =
    List.map
      (fun node ->
        Pdb.create sim net ~me:(Proc_id.initial node) ~universe ~config:cfg
          ~keyspace ())
      universe
  in
  ignore (Sim.run ~until:1.0 sim);
  let ranges = List.filter_map Pdb.my_range dbs in
  check Alcotest.int "everyone assigned" 4 (List.length ranges);
  let total = List.fold_left (fun acc (lo, hi) -> acc + (hi - lo)) 0 ranges in
  check Alcotest.int "ranges cover the keyspace" keyspace total;
  let sorted = List.sort compare ranges in
  let rec disjoint = function
    | (_, hi) :: ((lo', _) :: _ as rest) -> hi <= lo' && disjoint rest
    | _ -> true
  in
  check Alcotest.bool "ranges disjoint" true (disjoint sorted)

let test_pdb_rebalance_after_crash () =
  let sim = Sim.create ~seed:21L () in
  let net = Pdb.make_net sim Net.default_config in
  let universe = [ 0; 1; 2 ] in
  let keyspace = 90 in
  let dbs =
    List.map
      (fun node ->
        Pdb.create sim net ~me:(Proc_id.initial node) ~universe ~config:cfg
          ~keyspace ())
      universe
  in
  ignore (Sim.run ~until:1.0 sim);
  Go.kill (Pdb.obj (List.nth dbs 2));
  ignore (Sim.run ~until:3.0 sim);
  let survivors = [ List.nth dbs 0; List.nth dbs 1 ] in
  let total =
    List.fold_left
      (fun acc db ->
        match Pdb.my_range db with Some (lo, hi) -> acc + (hi - lo) | None -> acc)
      0 survivors
  in
  check Alcotest.int "survivors cover whole keyspace" keyspace total;
  let qid =
    match Pdb.lookup (List.hd survivors) ~needle:11 with
    | Ok q -> q
    | Error _ -> Alcotest.fail "refused after rebalance"
  in
  ignore (Sim.run ~until:3.5 sim);
  match Pdb.result_of (List.hd survivors) qid with
  | Ok hits ->
      check (Alcotest.list Alcotest.int) "still exact" (expected_hits keyspace 11)
        hits
  | Error `Pending -> Alcotest.fail "incomplete after rebalance"

(* ---------- KV store ---------- *)

let kv_cluster ?(seed = 22L) ~policy n =
  let sim = Sim.create ~seed () in
  let net = Kv.make_net sim Net.default_config in
  let universe = List.init n (fun i -> i) in
  let kvs =
    List.map
      (fun node ->
        Kv.create sim net ~me:(Proc_id.initial node) ~universe ~config:cfg
          ~policy ())
      universe
  in
  (sim, net, kvs)

let test_kv_basic_replication () =
  let sim, _net, kvs = kv_cluster ~policy:Kv.Lww 3 in
  ignore (Sim.run ~until:1.0 sim);
  ignore (Kv.put (List.hd kvs) ~key:"a" ~value:"1");
  ignore (Sim.run ~until:1.5 sim);
  List.iter
    (fun kv ->
      check (Alcotest.option Alcotest.string) "replicated" (Some "1")
        (Option.map fst (Kv.get kv ~key:"a")))
    kvs

let test_kv_lww_merge () =
  let sim, net, kvs = kv_cluster ~seed:23L ~policy:Kv.Lww 4 in
  ignore (Sim.run ~until:1.0 sim);
  ignore (Kv.put (List.hd kvs) ~key:"shared" ~value:"base");
  ignore (Sim.run ~until:1.4 sim);
  Net.set_partition net [ [ 0; 1 ]; [ 2; 3 ] ];
  ignore (Sim.run ~until:2.4 sim);
  (* Both sides write; the right side writes more, so its stamps dominate. *)
  ignore (Kv.put (List.nth kvs 0) ~key:"shared" ~value:"left");
  ignore (Sim.run ~until:2.6 sim);
  ignore (Kv.put (List.nth kvs 2) ~key:"shared" ~value:"right-1");
  ignore (Sim.run ~until:2.8 sim);
  ignore (Kv.put (List.nth kvs 2) ~key:"shared" ~value:"right-2");
  ignore (Kv.put (List.nth kvs 2) ~key:"only-right" ~value:"x");
  ignore (Sim.run ~until:3.2 sim);
  Net.heal net;
  ignore (Sim.run ~until:5.0 sim);
  (* Convergence: all replicas identical. *)
  let snapshot kv =
    List.map (fun k -> (k, Option.map fst (Kv.get kv ~key:k))) (Kv.keys kv)
  in
  let reference = snapshot (List.hd kvs) in
  List.iter
    (fun kv ->
      check
        (Alcotest.list
           (Alcotest.pair Alcotest.string (Alcotest.option Alcotest.string)))
        "replicas converged" reference (snapshot kv))
    kvs;
  check (Alcotest.option Alcotest.string) "higher stamp wins" (Some "right-2")
    (Option.map fst (Kv.get (List.hd kvs) ~key:"shared"));
  check (Alcotest.option Alcotest.string) "disjoint keys union" (Some "x")
    (Option.map fst (Kv.get (List.hd kvs) ~key:"only-right"))

let test_kv_primary_subview_merge () =
  let sim, net, kvs = kv_cluster ~seed:24L ~policy:Kv.Primary_subview 5 in
  ignore (Sim.run ~until:1.0 sim);
  ignore (Kv.put (List.hd kvs) ~key:"k" ~value:"base");
  ignore (Sim.run ~until:1.4 sim);
  Net.set_partition net [ [ 0; 1 ]; [ 2; 3; 4 ] ];
  ignore (Sim.run ~until:2.4 sim);
  ignore (Kv.put (List.nth kvs 0) ~key:"k" ~value:"minority");
  ignore (Kv.put (List.nth kvs 0) ~key:"minority-only" ~value:"m");
  ignore (Sim.run ~until:2.6 sim);
  ignore (Kv.put (List.nth kvs 2) ~key:"k" ~value:"majority");
  ignore (Sim.run ~until:3.0 sim);
  Net.heal net;
  ignore (Sim.run ~until:5.0 sim);
  (* The larger cluster's state wins wholesale: the minority's divergent
     writes — including its private key — are discarded. *)
  List.iter
    (fun kv ->
      check (Alcotest.option Alcotest.string) "primary value" (Some "majority")
        (Option.map fst (Kv.get kv ~key:"k"));
      check (Alcotest.option Alcotest.string) "minority write discarded" None
        (Option.map fst (Kv.get kv ~key:"minority-only")))
    kvs

let test_kv_custom_merge () =
  (* A custom merge that concatenates divergent values deterministically. *)
  let merge _key (va, sa) (vb, sb) =
    let lo = min va vb and hi = max va vb in
    ((if va = vb then va else lo ^ "+" ^ hi),
     if compare sa sb >= 0 then sa else sb)
  in
  let sim, net, kvs = kv_cluster ~seed:25L ~policy:(Kv.Custom merge) 4 in
  ignore (Sim.run ~until:1.0 sim);
  Net.set_partition net [ [ 0; 1 ]; [ 2; 3 ] ];
  ignore (Sim.run ~until:2.0 sim);
  ignore (Kv.put (List.nth kvs 0) ~key:"k" ~value:"A");
  ignore (Kv.put (List.nth kvs 2) ~key:"k" ~value:"B");
  ignore (Sim.run ~until:2.5 sim);
  Net.heal net;
  ignore (Sim.run ~until:4.5 sim);
  List.iter
    (fun kv ->
      check (Alcotest.option Alcotest.string) "custom merged" (Some "A+B")
        (Option.map fst (Kv.get kv ~key:"k")))
    kvs

(* ---------- State transfer ---------- *)

let transfer_scenario ~strategy ~state_bytes =
  let sim = Sim.create ~seed:26L () in
  let net = St.make_net sim Net.default_config in
  let universe = [ 0; 1; 2 ] in
  let mk ?bootstrap node =
    St.create sim net ~me:(Proc_id.initial node) ~universe ?bootstrap
      ~config:cfg ~strategy ~state_bytes ()
  in
  (* Two incumbents fabricate and settle first. *)
  let a = mk 0 and b = mk 1 in
  ignore (Sim.run ~until:1.5 sim);
  (* A joiner arrives; it must obtain the state, not fabricate it. *)
  let join_time = Sim.now sim in
  let c = mk ~bootstrap:false 2 in
  ignore (Sim.run ~until:8.0 sim);
  (sim, a, b, c, join_time)

let test_transfer_blocking () =
  let _sim, a, _b, c, join_time =
    transfer_scenario ~strategy:St.Blocking ~state_bytes:100_000
  in
  check Alcotest.bool "incumbent full" true (St.holds_full_state a);
  check Alcotest.bool "joiner got everything" true (St.holds_full_state c);
  match (St.reconciled_at c, St.full_state_at c) with
  | Some r, Some f ->
      check Alcotest.bool "joined then reconciled" true (r > join_time);
      (* Blocking: service resumes only with the full state. *)
      check Alcotest.bool "reconcile not before full state" true (r >= f)
  | _ -> Alcotest.fail "joiner never completed"

let test_transfer_two_piece () =
  let _sim, _a, _b, c, _join_time =
    transfer_scenario
      ~strategy:(St.Two_piece { sync_bytes = 512; chunk_bytes = 4096 })
      ~state_bytes:100_000
  in
  check Alcotest.bool "joiner eventually full" true (St.holds_full_state c);
  match (St.reconciled_at c, St.full_state_at c) with
  | Some r, Some f ->
      (* Two-piece: the joiner serves long before the bulk completes. *)
      check Alcotest.bool "reconciled strictly before full transfer" true (r < f)
  | _ -> Alcotest.fail "joiner never completed"

let test_transfer_creation_fabricates () =
  let sim = Sim.create ~seed:27L () in
  let net = St.make_net sim Net.default_config in
  let a =
    St.create sim net ~me:(Proc_id.initial 0) ~universe:[ 0 ] ~config:cfg
      ~strategy:St.Blocking ~state_bytes:1000 ()
  in
  ignore (Sim.run ~until:1.0 sim);
  check Alcotest.bool "lone process fabricates (creation)" true
    (St.holds_full_state a);
  check Alcotest.bool "and serves" true (Mode.equal (Go.mode (St.obj a)) Mode.Normal)

(* ---------- Group_object: settles and settle rounds ---------- *)

let settle_line vid (transfer, creation, merging, clusters) =
  Printf.sprintf "%s transfer=%b creation=%s merging=%b clusters=%d"
    (View.Id.to_string vid) transfer creation merging clusters

(* The runtime's record of its settles, checked against the event stream:
   under partitions, a heal, a crash and a recovery, each object's
   [Go.settles] is, in order, exactly the Settle events the Protocol-level
   recorder holds for its process. *)
let test_settles_match_event_stream () =
  let obs = Recorder.create ~level:Recorder.Protocol () in
  let sim = Sim.create ~seed:28L ~obs () in
  let net = Kv.make_net sim Net.default_config in
  let universe = [ 0; 1; 2; 3 ] in
  let fleet =
    App_fleet.create sim net ~nodes:universe ~obj:Kv.obj ~spawn:(fun me ->
        Kv.create sim net ~me ~universe ~config:cfg ~policy:Kv.Lww ())
  in
  App_fleet.run_script fleet
    [
      (1.5, Faults.Partition [ [ 0; 1 ]; [ 2; 3 ] ]);
      (2.5, Faults.Heal);
      (3.5, Faults.Crash 3);
      (4.5, Faults.Recover 3);
      (5.5, Faults.Partition [ [ 0 ]; [ 1; 2; 3 ] ]);
      (6.5, Faults.Heal);
    ];
  ignore (Sim.run ~until:9.0 sim);
  let stream proc =
    List.filter_map
      (fun { Recorder.event; _ } ->
        match event with
        | Event.Settle s when Proc_id.equal s.proc proc ->
            Some (settle_line s.vid (s.transfer, s.creation, s.merging, s.clusters))
        | _ -> None)
      (Recorder.entries obs)
  in
  let creation = function
    | Classify.No_creation -> "none"
    | Classify.Rebirth -> "rebirth"
    | Classify.In_progress -> "in-progress"
  in
  let recorded o =
    List.map
      (fun ((p : Classify.problem), ev) ->
        settle_line ev.E_view.view.View.id
          (p.transfer, creation p.creation, p.merging, p.clusters))
      (Go.settles o)
  in
  let objs = List.map Kv.obj (App_fleet.all_ever fleet) in
  check Alcotest.int "five incarnations" 5 (List.length objs);
  List.iter
    (fun o ->
      check (Alcotest.list Alcotest.string)
        (Proc_id.to_string (Go.me o) ^ " settles = stream")
        (stream (Go.me o)) (recorded o))
    objs;
  check Alcotest.bool "every incarnation settled three times or more" true
    (List.for_all (fun o -> List.length (Go.settles o) >= 3) objs)

(* A round answers only for its own view and only once every current
   member has reported; a sender's later report replaces its earlier one,
   and reports come back in member order. *)
let test_settle_round () =
  let sim, net, cs = counter_cluster 3 in
  ignore (Sim.run ~until:1.0 sim);
  let o = Counter.obj (List.hd cs) in
  let members = E_view.members (Go.eview o) in
  check Alcotest.int "one three-member view" 3 (List.length members);
  let r = Go.round o in
  let vid = Go.round_vid r in
  let other = View.Id.make ~epoch:(vid.epoch + 1) ~proposer:vid.proposer in
  let got = Alcotest.(option (list (pair string string))) in
  let show = Option.map (List.map (fun (p, x) -> (Proc_id.to_string p, x))) in
  let report ~vid p x = show (Go.report r ~vid ~sender:p x) in
  match members with
  | [ m0; m1; m2 ] ->
      check got "stamped with another view: refused" None (report ~vid:other m0 "stale");
      check got "one of three" None (report ~vid m2 "c");
      check got "two of three" None (report ~vid m1 "b0");
      check got "a later report replaces" None (report ~vid m1 "b");
      check got "the refused report was not kept" None (Go.reports r |> show);
      let all =
        Some (List.map2 (fun m x -> (Proc_id.to_string m, x)) members [ "a"; "b"; "c" ])
      in
      check got "all three, in member order" all (report ~vid m0 "a");
      check got "reports is the same answer" all (show (Go.reports r));
      (* Once the round's view is gone, it answers nothing. *)
      Net.set_partition net [ [ 0 ]; [ 1; 2 ] ];
      ignore (Sim.run ~until:2.5 sim);
      check got "the view changed" None (show (Go.reports r))
  | _ -> Alcotest.fail "expected three members"

(* ---------- Last to fail ---------- *)

let test_ltf_persistence_roundtrip () =
  let store = Store.create () in
  let v1 =
    View.make
      (View.Id.make ~epoch:1 ~proposer:(Proc_id.initial 0))
      [ Proc_id.initial 0; Proc_id.initial 1 ]
  in
  let v2 =
    View.make (View.Id.make ~epoch:2 ~proposer:(Proc_id.initial 0))
      [ Proc_id.initial 0 ]
  in
  Ltf.record_view store ~node:0 v1;
  Ltf.record_view store ~node:0 v2;
  check Alcotest.int "two views persisted" 2
    (List.length (Ltf.persisted_log store ~node:0));
  check Alcotest.bool "order preserved" true
    (View.Id.equal (List.nth (Ltf.persisted_log store ~node:0) 1) v2.View.id);
  Ltf.wipe store ~node:0;
  check Alcotest.int "wiped" 0 (List.length (Ltf.persisted_log store ~node:0))

let test_ltf_decisions () =
  let p n = Proc_id.initial n in
  let pr n i = Proc_id.make ~node:n ~inc:i in
  let vid e n = View.Id.make ~epoch:e ~proposer:(p n) in
  (* Nobody has history: fresh start. *)
  check Alcotest.bool "fresh start" true
    (Ltf.decide ~known_last_views:[]
       [
         { Ltf.r_proc = pr 0 1; r_last = None };
         { Ltf.r_proc = pr 1 1; r_last = None };
       ]
    = Ltf.Fresh_start);
  (* The group shrank before dying; the final survivor's node recovered:
     adopt from it. *)
  let v3 = View.make (vid 3 0) [ p 0 ] in
  let decision =
    Ltf.decide
      ~known_last_views:[ (v3.View.id, v3) ]
      [
        { Ltf.r_proc = pr 0 1; r_last = Some v3.View.id };
        { Ltf.r_proc = pr 1 1; r_last = Some (vid 2 0) };
      ]
  in
  (match decision with
  | Ltf.Adopt_from [ holder ] ->
      check Alcotest.bool "adopt from the last survivor" true
        (Proc_id.equal holder (pr 0 1))
  | _ -> Alcotest.fail "expected Adopt_from");
  (* The last view's members have not all recovered: wait. *)
  let v5 = View.make (vid 5 0) [ p 0; p 2 ] in
  let decision =
    Ltf.decide
      ~known_last_views:[ (v5.View.id, v5) ]
      [ { Ltf.r_proc = pr 0 1; r_last = Some v5.View.id } ]
  in
  match decision with
  | Ltf.Wait_for missing ->
      check Alcotest.int "one process awaited" 1 (List.length missing);
      check Alcotest.bool "it is node 2" true ((List.hd missing).Proc_id.node = 2)
  | _ -> Alcotest.fail "expected Wait_for"

let test_ltf_from_store_staggered_failure () =
  let store = Store.create () in
  let p n = Proc_id.initial n in
  let vid e = View.Id.make ~epoch:e ~proposer:(p 0) in
  (* History: {0,1,2} then {0,1} then {0}. Every member persists the views
     it installed. *)
  let v1 = View.make (vid 1) [ p 0; p 1; p 2 ] in
  let v2 = View.make (vid 2) [ p 0; p 1 ] in
  let v3 = View.make (vid 3) [ p 0 ] in
  List.iter (fun node -> Ltf.record_view store ~node v1) [ 0; 1; 2 ];
  List.iter (fun node -> Ltf.record_view store ~node v2) [ 0; 1 ];
  Ltf.record_view store ~node:0 v3;
  (* All three recover: node 0 was the last to fail. *)
  let reporters =
    [
      Proc_id.make ~node:0 ~inc:1;
      Proc_id.make ~node:1 ~inc:1;
      Proc_id.make ~node:2 ~inc:1;
    ]
  in
  (match Ltf.decide_from_store store ~reporters with
  | Ltf.Adopt_from [ holder ] ->
      check Alcotest.int "node 0 is the last to fail" 0 holder.Proc_id.node
  | _ -> Alcotest.fail "expected unique last-to-fail");
  (* Only node 1 recovers: it must wait for node 0. *)
  match Ltf.decide_from_store store ~reporters:[ Proc_id.make ~node:1 ~inc:1 ] with
  | Ltf.Wait_for missing ->
      check Alcotest.bool "waits for node 0" true
        (List.exists (fun (q : Proc_id.t) -> q.Proc_id.node = 0) missing)
  | _ -> Alcotest.fail "expected Wait_for node 0"

let () =
  Alcotest.run "vs_apps"
    [
      ( "counter",
        [
          Alcotest.test_case "quickstart" `Quick test_counter_quickstart;
          Alcotest.test_case "refuses while settling" `Quick
            test_counter_refuses_while_settling;
          Alcotest.test_case "divergence merges to max" `Quick
            test_counter_divergence_merges_to_max;
          Alcotest.test_case "join transfer" `Quick test_counter_join_transfer;
          Alcotest.test_case "histories well-formed (Sec. 3)" `Quick
            test_histories_well_formed;
        ] );
      ( "replicated_file",
        [
          Alcotest.test_case "one-copy semantics" `Quick test_file_one_copy_semantics;
          Alcotest.test_case "minority reduced" `Quick test_file_minority_reduced;
          Alcotest.test_case "total failure recreation" `Quick
            test_file_total_failure_recreation;
          Alcotest.test_case "weighted votes" `Quick test_file_weighted_votes;
          Alcotest.test_case "concurrent writes ordered" `Quick
            test_file_concurrent_writes_ordered;
        ] );
      ( "parallel_db",
        [
          Alcotest.test_case "exact coverage" `Quick test_pdb_lookup_exact_coverage;
          Alcotest.test_case "ranges partition keyspace" `Quick
            test_pdb_ranges_partition_keyspace;
          Alcotest.test_case "rebalance after crash" `Quick
            test_pdb_rebalance_after_crash;
        ] );
      ( "kv_store",
        [
          Alcotest.test_case "replication" `Quick test_kv_basic_replication;
          Alcotest.test_case "LWW merge" `Quick test_kv_lww_merge;
          Alcotest.test_case "primary-subview merge" `Quick
            test_kv_primary_subview_merge;
          Alcotest.test_case "custom merge" `Quick test_kv_custom_merge;
        ] );
      ( "state_transfer",
        [
          Alcotest.test_case "blocking" `Quick test_transfer_blocking;
          Alcotest.test_case "two-piece" `Quick test_transfer_two_piece;
          Alcotest.test_case "creation fabricates" `Quick
            test_transfer_creation_fabricates;
        ] );
      ( "group_object",
        [
          Alcotest.test_case "settles equal the event stream" `Quick
            test_settles_match_event_stream;
          Alcotest.test_case "settle round" `Quick test_settle_round;
        ] );
      ( "last_to_fail",
        [
          Alcotest.test_case "persistence roundtrip" `Quick
            test_ltf_persistence_roundtrip;
          Alcotest.test_case "decisions" `Quick test_ltf_decisions;
          Alcotest.test_case "staggered failure" `Quick
            test_ltf_from_store_staggered_failure;
        ] );
    ]
