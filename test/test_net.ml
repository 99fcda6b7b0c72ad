(* Tests for the simulated network: delivery, delays, loss, duplication,
   partitions, crash/recovery addressing and accounting. *)

module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Proc_id = Vs_net.Proc_id
module Recorder = Vs_obs.Recorder
module Event = Vs_obs.Event

let check = Alcotest.check

let p0 = Proc_id.initial 0
let p1 = Proc_id.initial 1
let p2 = Proc_id.initial 2

let setup ?(config = Net.default_config) () =
  let sim = Sim.create ~seed:5L () in
  let net = Net.create sim config in
  (sim, net)

let register_collecting net p =
  let inbox = ref [] in
  Net.register net p (fun env -> inbox := env :: !inbox);
  inbox

(* ---------- Proc_id ---------- *)

let test_proc_id () =
  check Alcotest.string "initial rendering" "p3" (Proc_id.to_string (Proc_id.initial 3));
  check Alcotest.string "incarnation rendering" "p3.2"
    (Proc_id.to_string (Proc_id.make ~node:3 ~inc:2));
  check Alcotest.bool "incarnations ordered" true
    (Proc_id.compare (Proc_id.make ~node:1 ~inc:0) (Proc_id.make ~node:1 ~inc:1) < 0);
  check Alcotest.bool "nodes ordered first" true
    (Proc_id.compare (Proc_id.make ~node:1 ~inc:9) (Proc_id.make ~node:2 ~inc:0) < 0);
  check
    (Alcotest.option (Alcotest.testable Proc_id.pp Proc_id.equal))
    "min member" (Some p0)
    (Proc_id.min_member [ p2; p0; p1 ]);
  check Alcotest.bool "negative rejected" true
    (try ignore (Proc_id.make ~node:(-1) ~inc:0); false
     with Invalid_argument _ -> true)

(* ---------- basic delivery ---------- *)

let test_delivery () =
  let sim, net = setup () in
  let inbox = register_collecting net p1 in
  Net.register net p0 (fun _ -> ());
  Net.send net ~src:p0 ~dst:p1 "hello";
  ignore (Sim.run sim);
  match !inbox with
  | [ env ] ->
      check Alcotest.string "payload" "hello" env.Net.payload;
      check Alcotest.bool "src" true (Proc_id.equal env.Net.src p0);
      check Alcotest.bool "delay within bounds" true
        (Sim.now sim >= Net.default_config.Net.delay_min
        && Sim.now sim <= Net.default_config.Net.delay_max)
  | other -> Alcotest.failf "expected 1 message, got %d" (List.length other)

let test_send_from_dead_source () =
  let sim, net = setup () in
  let inbox = register_collecting net p1 in
  (* p0 never registered: the send is swallowed. *)
  Net.send net ~src:p0 ~dst:p1 "ghost";
  ignore (Sim.run sim);
  check Alcotest.int "nothing delivered" 0 (List.length !inbox);
  check Alcotest.int "counted dropped" 1 (Net.stats net).Net.dropped

let test_full_loss () =
  let config = { Net.default_config with Net.drop_prob = 1.0 } in
  let sim, net = setup ~config () in
  let inbox = register_collecting net p1 in
  let self_inbox = register_collecting net p0 in
  for _ = 1 to 20 do
    Net.send net ~src:p0 ~dst:p1 "x";
    Net.send net ~src:p0 ~dst:p0 "self"
  done;
  ignore (Sim.run sim);
  check Alcotest.int "all remote messages lost" 0 (List.length !inbox);
  check Alcotest.int "self messages immune to loss" 20 (List.length !self_inbox)

let test_duplication () =
  let config = { Net.default_config with Net.dup_prob = 1.0 } in
  let sim, net = setup ~config () in
  let inbox = register_collecting net p1 in
  Net.register net p0 (fun _ -> ());
  Net.send net ~src:p0 ~dst:p1 "twice";
  ignore (Sim.run sim);
  check Alcotest.int "delivered twice" 2 (List.length !inbox);
  check Alcotest.int "duplication counted" 1 (Net.stats net).Net.duplicated

let test_send_node_duplication () =
  (* Node-addressed sends go through the same fault model as
     process-addressed ones. *)
  let config = { Net.default_config with Net.dup_prob = 1.0 } in
  let sim, net = setup ~config () in
  let inbox = register_collecting net p1 in
  let self_inbox = register_collecting net p0 in
  Net.send_node net ~src:p0 ~dst_node:1 "twice";
  Net.send_node net ~src:p0 ~dst_node:0 "self";
  ignore (Sim.run sim);
  check Alcotest.int "node send delivered twice" 2 (List.length !inbox);
  check Alcotest.int "self node send immune to duplication" 1
    (List.length !self_inbox);
  check Alcotest.int "node duplication counted" 1 (Net.stats net).Net.duplicated

(* ---------- partitions ---------- *)

let test_partition_blocks () =
  let sim, net = setup () in
  let inbox1 = register_collecting net p1 in
  let inbox2 = register_collecting net p2 in
  Net.register net p0 (fun _ -> ());
  Net.set_partition net [ [ 0; 1 ]; [ 2 ] ];
  check Alcotest.bool "0-1 connected" true (Net.connected net 0 1);
  check Alcotest.bool "0-2 cut" false (Net.connected net 0 2);
  Net.send net ~src:p0 ~dst:p1 "in-component";
  Net.send net ~src:p0 ~dst:p2 "cross";
  ignore (Sim.run sim);
  check Alcotest.int "same component delivered" 1 (List.length !inbox1);
  check Alcotest.int "cross component lost" 0 (List.length !inbox2);
  Net.heal net;
  Net.send net ~src:p0 ~dst:p2 "after-heal";
  ignore (Sim.run sim);
  check Alcotest.int "heal restores" 1 (List.length !inbox2)

let test_partition_kills_in_flight () =
  let sim, net = setup () in
  let inbox = register_collecting net p1 in
  Net.register net p0 (fun _ -> ());
  Net.send net ~src:p0 ~dst:p1 "in-flight";
  (* Partition before the message lands: it must die on the wire. *)
  ignore (Sim.at sim 0.0005 (fun () -> Net.set_partition net [ [ 0 ]; [ 1 ] ]));
  ignore (Sim.run sim);
  check Alcotest.int "in-flight message lost" 0 (List.length !inbox)

let test_unmentioned_nodes_isolated () =
  let _sim, net = setup () in
  Net.set_partition net [ [ 0; 1 ] ];
  check Alcotest.bool "unmentioned node isolated" false (Net.connected net 0 2);
  check Alcotest.bool "two unmentioned nodes isolated from each other" false
    (Net.connected net 2 3);
  check Alcotest.bool "self always connected" true (Net.connected net 2 2)

(* ---------- crash / recovery ---------- *)

let test_crash_and_incarnations () =
  let sim, net = setup () in
  let inbox = register_collecting net p1 in
  Net.register net p0 (fun _ -> ());
  Net.crash net p1;
  check Alcotest.bool "not live" false (Net.is_live net p1);
  Net.send net ~src:p0 ~dst:p1 "to-the-dead";
  ignore (Sim.run sim);
  check Alcotest.int "nothing reaches dead incarnation" 0 (List.length !inbox);
  (* Recovery gets a fresh incarnation. *)
  let p1' = Net.fresh_incarnation net 1 in
  check Alcotest.int "incarnation bumped" 1 p1'.Proc_id.inc;
  let inbox' = register_collecting net p1' in
  Net.send net ~src:p0 ~dst:p1 "to-old-incarnation";
  Net.send net ~src:p0 ~dst:p1' "to-new-incarnation";
  ignore (Sim.run sim);
  check Alcotest.int "old identity stays dead" 0 (List.length !inbox);
  check Alcotest.int "new identity reachable" 1 (List.length !inbox')

let test_register_rules () =
  let _sim, net = setup () in
  Net.register net p0 (fun _ -> ());
  check Alcotest.bool "double occupancy refused" true
    (try Net.register net (Proc_id.make ~node:0 ~inc:1) (fun _ -> ()); false
     with Invalid_argument _ -> true);
  Net.crash net p0;
  check Alcotest.bool "stale incarnation refused" true
    (try Net.register net p0 (fun _ -> ()); false
     with Invalid_argument _ -> true);
  Net.register net (Proc_id.make ~node:0 ~inc:1) (fun _ -> ());
  check Alcotest.bool "fresh incarnation accepted" true
    (Net.is_live net (Proc_id.make ~node:0 ~inc:1))

let test_send_node_finds_new_incarnation () =
  let sim, net = setup () in
  Net.register net p0 (fun _ -> ());
  Net.register net p1 (fun _ -> ());
  Net.crash net p1;
  let p1' = Net.fresh_incarnation net 1 in
  let inbox' = register_collecting net p1' in
  (* Node addressing reaches whoever is live at delivery time. *)
  Net.send_node net ~src:p0 ~dst_node:1 "heartbeat";
  ignore (Sim.run sim);
  check Alcotest.int "new incarnation got it" 1 (List.length !inbox')

(* ---------- node-addressed sends at Full level ---------- *)

(* The traffic a Full-level recorder saw, one "<kind> <dst> <msg> <bytes>"
   row per event; a drop's kind is its reason. *)
let traffic recorder =
  let row kind dst (msg : Event.msg option) bytes =
    Printf.sprintf "%s %s %s %d" kind (Event.proc_to_string dst)
      (match msg with Some m -> Event.msg_to_string m | None -> "-")
      bytes
  in
  List.filter_map
    (fun { Recorder.event; _ } ->
      match event with
      | Event.Send { dst; msg; bytes; _ } -> Some (row "send" dst msg bytes)
      | Event.Dup { dst; msg; _ } -> Some (row "dup" dst msg 0)
      | Event.Recv { dst; msg; _ } -> Some (row "recv" dst msg 0)
      | Event.Drop { dst; msg; reason; _ } -> Some (row reason dst msg 0)
      | _ -> None)
    (Recorder.entries recorder)

(* [send_node] emits through the same per-identity emitters as [send]: one
   Send, Dup and Drop per carried identity, addressed to the n<node>
   pseudo-destination, with the bytes on the first Send only, and Recv
   events naming the incarnation the message reached. *)
let test_send_node_full_events () =
  let recorder = Recorder.create ~level:Recorder.Full () in
  let sim = Sim.create ~seed:5L ~obs:recorder () in
  let ids = [ { Event.origin = p0; mseq = 1 }; { Event.origin = p0; mseq = 2 } ] in
  let net =
    Net.create ~size_of:String.length ~idents:(fun _ -> ids) sim
      { Net.default_config with Net.dup_prob = 1.0 }
  in
  Net.register net p0 (fun _ -> ());
  Net.register net p1 (fun _ -> ());
  Net.crash net p1;
  let p1' = Net.fresh_incarnation net 1 in
  Net.register net p1' (fun _ -> ());
  Net.send_node net ~src:p0 ~dst_node:1 "batch";
  ignore (Sim.run sim);
  Net.set_partition net [ [ 0 ]; [ 1 ] ];
  Net.send_node net ~src:p0 ~dst_node:1 "batch";
  ignore (Sim.run sim);
  check
    (Alcotest.list Alcotest.string)
    "per-identity events"
    [
      "send n1 p0#1 5";
      "send n1 p0#2 0";
      "dup n1 p0#1 0";
      "dup n1 p0#2 0";
      "recv p1.1 p0#1 0";
      "recv p1.1 p0#2 0";
      "recv p1.1 p0#1 0";
      "recv p1.1 p0#2 0";
      "partition n1 p0#1 0";
      "partition n1 p0#2 0";
    ]
    (traffic recorder)

(* ---------- the per-address rules, on a link that loses everything ---------- *)

let lossy_full () =
  let recorder = Recorder.create ~level:Recorder.Full () in
  let sim = Sim.create ~seed:5L ~obs:recorder () in
  let net = Net.create sim { Net.default_config with Net.drop_prob = 1.0 } in
  (recorder, sim, net)

(* "Self" is exempt from loss.  For a node address it is the same node. *)
let test_node_self_send_exempt () =
  let recorder, sim, net = lossy_full () in
  let inbox = register_collecting net p0 in
  Net.send_node net ~src:p0 ~dst_node:0 "self";
  Net.send_node net ~src:p0 ~dst_node:1 "remote";
  ignore (Sim.run sim);
  check Alcotest.int "the send to its own node arrives" 1 (List.length !inbox);
  check
    (Alcotest.list Alcotest.string)
    "events"
    [ "send n0 - 1"; "loss n1 - 0"; "recv p0 - 0" ]
    (traffic recorder)

(* For a process address it is the same incarnation: another incarnation on
   the sender's node is lost before it could be found dead. *)
let test_other_incarnation_not_self () =
  let recorder, sim, net = lossy_full () in
  Net.register net p0 (fun _ -> ());
  Net.crash net p0;
  let p0' = Net.fresh_incarnation net 0 in
  Net.register net p0' (fun _ -> ());
  Net.send net ~src:p0' ~dst:p0 "stale";
  ignore (Sim.run sim);
  check (Alcotest.list Alcotest.string) "events" [ "loss p0 - 0" ]
    (traffic recorder)

(* A node address is resolved at arrival: a drop there names the n<node>
   pseudo-destination, a Recv names the incarnation reached. *)
let test_node_address_at_arrival () =
  let recorder, sim, net = lossy_full () in
  Net.register net p0 (fun _ -> ());
  Net.send_node net ~src:p0 ~dst_node:0 "to-recovered";
  Net.crash net p0;
  let p0' = Net.fresh_incarnation net 0 in
  let inbox = register_collecting net p0' in
  ignore (Sim.run sim);
  Net.send_node net ~src:p0' ~dst_node:0 "to-nobody";
  Net.crash net p0';
  ignore (Sim.run sim);
  check Alcotest.int "the recovered incarnation got it" 1 (List.length !inbox);
  check
    (Alcotest.list Alcotest.string)
    "events"
    [ "send n0 - 1"; "recv p0.1 - 0"; "send n0 - 1"; "dst-dead n0 - 0" ]
    (traffic recorder);
  (* A partition drop at arrival needs a link that delivers across nodes. *)
  let recorder = Recorder.create ~level:Recorder.Full () in
  let sim = Sim.create ~seed:5L ~obs:recorder () in
  let net = Net.create sim Net.default_config in
  Net.register net p0 (fun _ -> ());
  Net.register net p1 (fun _ -> ());
  Net.send_node net ~src:p0 ~dst_node:1 "cut";
  ignore (Sim.at sim 0.0005 (fun () -> Net.set_partition net [ [ 0 ]; [ 1 ] ]));
  ignore (Sim.run sim);
  check
    (Alcotest.list Alcotest.string)
    "partitioned in flight"
    [ "send n1 - 1"; "partition-inflight n1 - 0" ]
    (traffic recorder)

(* ---------- accounting ---------- *)

let test_stats_and_bytes () =
  let sim = Sim.create () in
  let net = Net.create ~size_of:String.length sim Net.default_config in
  Net.register net p0 (fun _ -> ());
  Net.register net p1 (fun _ -> ());
  let before = Net.stats net in
  Net.send net ~src:p0 ~dst:p1 "12345";
  Net.send net ~src:p0 ~dst:p1 "123";
  ignore (Sim.run sim);
  let s = Net.stats net in
  check Alcotest.int "sent" 2 s.Net.sent;
  check Alcotest.int "delivered" 2 s.Net.delivered;
  check Alcotest.int "bytes" 8 s.Net.bytes_sent;
  (* [stats] is a snapshot: one taken before the traffic does not move. *)
  check Alcotest.int "earlier snapshot" 0 before.Net.sent

let test_config_validation () =
  let sim = Sim.create () in
  check Alcotest.bool "bad delays rejected" true
    (try
       ignore
         (Net.create sim
            { Net.default_config with Net.delay_min = 0.5; delay_max = 0.1 });
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "vs_net"
    [
      ("proc_id", [ Alcotest.test_case "identities" `Quick test_proc_id ]);
      ( "delivery",
        [
          Alcotest.test_case "basic" `Quick test_delivery;
          Alcotest.test_case "dead source" `Quick test_send_from_dead_source;
          Alcotest.test_case "full loss" `Quick test_full_loss;
          Alcotest.test_case "duplication" `Quick test_duplication;
          Alcotest.test_case "node-send duplication" `Quick
            test_send_node_duplication;
        ] );
      ( "partitions",
        [
          Alcotest.test_case "blocks traffic" `Quick test_partition_blocks;
          Alcotest.test_case "kills in-flight" `Quick test_partition_kills_in_flight;
          Alcotest.test_case "isolates unmentioned" `Quick test_unmentioned_nodes_isolated;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "crash and incarnations" `Quick test_crash_and_incarnations;
          Alcotest.test_case "register rules" `Quick test_register_rules;
          Alcotest.test_case "node addressing" `Quick test_send_node_finds_new_incarnation;
        ] );
      ( "observability",
        [
          Alcotest.test_case "node sends at full level" `Quick
            test_send_node_full_events;
        ] );
      ( "per-address rules",
        [
          Alcotest.test_case "own node is self" `Quick test_node_self_send_exempt;
          Alcotest.test_case "other incarnation is not self" `Quick
            test_other_incarnation_not_self;
          Alcotest.test_case "node address resolved at arrival" `Quick
            test_node_address_at_arrival;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "stats and bytes" `Quick test_stats_and_bytes;
          Alcotest.test_case "config validation" `Quick test_config_validation;
        ] );
    ]
