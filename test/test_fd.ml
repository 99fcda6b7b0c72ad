(* Tests for the heartbeat failure detector: detection, false suspicion
   under partition, recovery with new incarnations, graceful forget, and
   the skipped rebuild against the rebuild itself. *)

module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Proc_id = Vs_net.Proc_id
module Fd = Vs_fd.Fd
module Hashtblx = Vs_util.Hashtblx
module Recorder = Vs_obs.Recorder
module Event = Vs_obs.Event

let check = Alcotest.check

type msg = Heartbeat

(* A minimal stack: each node runs one FD over a shared network. *)
type node = { proc : Proc_id.t; fd : Fd.t }

let make_stack ?(n = 3) ?(config = Fd.default_config) sim net =
  let universe = List.init n (fun i -> i) in
  let nodes = Hashtbl.create n in
  let boot node_id inc =
    let me = Proc_id.make ~node:node_id ~inc in
    let fd = ref None in
    Net.register net me (fun env ->
        match env.Net.payload with
        | Heartbeat -> (
            match !fd with
            | Some f -> Fd.heartbeat_received f ~from:env.Net.src
            | None -> ()));
    let f =
      Fd.create sim ~me ~universe ~config
        ~send_heartbeat:(fun ~dst_node ->
          Net.send_node net ~src:me ~dst_node Heartbeat)
        ~on_change:(fun _ -> ())
    in
    fd := Some f;
    Hashtbl.replace nodes node_id { proc = me; fd = f }
  in
  List.iter (fun i -> boot i 0) universe;
  (nodes, boot)

let reachable_nodes node =
  List.map (fun (p : Proc_id.t) -> p.Proc_id.node) (Fd.reachable node.fd)

let test_mutual_detection () =
  let sim = Sim.create ~seed:21L () in
  let net = Net.create sim Net.default_config in
  let nodes, _ = make_stack sim net in
  ignore (Sim.run ~until:0.5 sim);
  Hashtbl.iter
    (fun _ node ->
      check (Alcotest.list Alcotest.int) "everyone sees everyone" [ 0; 1; 2 ]
        (reachable_nodes node))
    nodes

let test_crash_detection () =
  let sim = Sim.create ~seed:22L () in
  let net = Net.create sim Net.default_config in
  let nodes, _ = make_stack sim net in
  ignore (Sim.run ~until:0.5 sim);
  let victim = Hashtbl.find nodes 2 in
  Fd.stop victim.fd;
  Net.crash net victim.proc;
  (* Suspicion must arrive within timeout + one period (plus slack). *)
  ignore (Sim.run ~until:(0.5 +. 0.100 +. 0.030 +. 0.050) sim);
  check (Alcotest.list Alcotest.int) "crash suspected" [ 0; 1 ]
    (reachable_nodes (Hashtbl.find nodes 0));
  check (Alcotest.list Alcotest.int) "suspected by all" [ 0; 1 ]
    (reachable_nodes (Hashtbl.find nodes 1))

let test_partition_false_suspicion_and_repair () =
  let sim = Sim.create ~seed:23L () in
  let net = Net.create sim Net.default_config in
  let nodes, _ = make_stack sim net in
  ignore (Sim.run ~until:0.5 sim);
  Net.set_partition net [ [ 0 ]; [ 1; 2 ] ];
  ignore (Sim.run ~until:1.0 sim);
  check (Alcotest.list Alcotest.int) "p0 alone" [ 0 ]
    (reachable_nodes (Hashtbl.find nodes 0));
  check (Alcotest.list Alcotest.int) "p1 sees majority side" [ 1; 2 ]
    (reachable_nodes (Hashtbl.find nodes 1));
  (* The suspicion was false: nobody crashed.  Healing repairs it. *)
  Net.heal net;
  ignore (Sim.run ~until:1.5 sim);
  check (Alcotest.list Alcotest.int) "heal restores reachability" [ 0; 1; 2 ]
    (reachable_nodes (Hashtbl.find nodes 0))

let test_recovery_new_incarnation () =
  let sim = Sim.create ~seed:24L () in
  let net = Net.create sim Net.default_config in
  let nodes, boot = make_stack sim net in
  ignore (Sim.run ~until:0.5 sim);
  let victim = Hashtbl.find nodes 2 in
  Fd.stop victim.fd;
  Net.crash net victim.proc;
  ignore (Sim.run ~until:1.0 sim);
  boot 2 1;
  ignore (Sim.run ~until:1.5 sim);
  let survivors = Fd.reachable (Hashtbl.find nodes 0).fd in
  check Alcotest.bool "new incarnation visible" true
    (List.exists (fun p -> Proc_id.equal p (Proc_id.make ~node:2 ~inc:1)) survivors);
  check Alcotest.bool "old incarnation gone" true
    (not (List.exists (fun p -> Proc_id.equal p (Proc_id.initial 2)) survivors))

let test_forget () =
  let sim = Sim.create ~seed:25L () in
  let net = Net.create sim Net.default_config in
  let nodes, _ = make_stack sim net in
  ignore (Sim.run ~until:0.5 sim);
  let n0 = Hashtbl.find nodes 0 in
  (* A leave announcement lets peers drop the process immediately, without
     waiting out the timeout... *)
  Fd.forget n0.fd (Hashtbl.find nodes 2).proc;
  check (Alcotest.list Alcotest.int) "forgotten immediately" [ 0; 1 ]
    (reachable_nodes n0);
  (* ...but a live peer that keeps heartbeating comes right back. *)
  ignore (Sim.run ~until:1.0 sim);
  check (Alcotest.list Alcotest.int) "live peer reappears" [ 0; 1; 2 ]
    (reachable_nodes n0)

let test_change_notifications () =
  let sim = Sim.create ~seed:26L () in
  let net = Net.create sim Net.default_config in
  let me = Proc_id.initial 0 in
  let changes = ref 0 in
  let fd = ref None in
  Net.register net me (fun env ->
      match env.Net.payload with
      | Heartbeat -> (
          match !fd with
          | Some f -> Fd.heartbeat_received f ~from:env.Net.src
          | None -> ()));
  let f =
    Fd.create sim ~me ~universe:[ 0; 1 ] ~config:Fd.default_config
      ~send_heartbeat:(fun ~dst_node ->
        Net.send_node net ~src:me ~dst_node Heartbeat)
      ~on_change:(fun _ -> incr changes)
  in
  fd := Some f;
  ignore (Sim.run ~until:1.0 sim);
  check Alcotest.int "no peer, no change events" 0 !changes

let test_config_validation () =
  let sim = Sim.create () in
  check Alcotest.bool "timeout must exceed period" true
    (try
       ignore
         (Fd.create sim ~me:(Proc_id.initial 0) ~universe:[ 0 ]
            ~config:{ Fd.period = 0.1; timeout = 0.05 }
            ~send_heartbeat:(fun ~dst_node:_ -> ())
            ~on_change:(fun _ -> ()));
       false
     with Invalid_argument _ -> true)

let test_stop () =
  let sim = Sim.create ~seed:27L () in
  let net = Net.create sim Net.default_config in
  let nodes, _ = make_stack sim net in
  let n0 = Hashtbl.find nodes 0 in
  Fd.stop n0.fd;
  ignore (Sim.run ~until:1.0 sim);
  (* A stopped detector never updates. *)
  check (Alcotest.list Alcotest.int) "stopped detector frozen" [ 0 ]
    (reachable_nodes n0)

(* ---------- fast paths vs the rebuild ---------- *)

(* The reference: the rebuild every refresh performed before the detector
   learned to skip it, kept verbatim over a mirror of [last_heard]. *)
type reference = {
  sim : Sim.t;
  me : Proc_id.t;
  config : Fd.config;
  last_heard : (Proc_id.t, float) Hashtbl.t;
}

let compute_reachable t =
  let now = Sim.now t.sim in
  let fresh =
    Hashtblx.sorted_bindings ~cmp:Proc_id.compare t.last_heard
    |> List.filter_map (fun (p, heard) ->
           if now -. heard < t.config.Fd.timeout then Some p else None)
  in
  Proc_id.sort (t.me :: fresh)

type fd_op =
  | Beat of int * int  (* heartbeat from (node, incarnation); node 0 is me *)
  | Forget of int * int
  | Advance of int  (* run the engine this many ms: ticks fire in between *)

let show_fd_op = function
  | Beat (n, i) -> Printf.sprintf "beat p%d.%d" n i
  | Forget (n, i) -> Printf.sprintf "forget p%d.%d" n i
  | Advance ms -> Printf.sprintf "+%dms" ms

let fd_ops =
  let open QCheck.Gen in
  let peer = pair (int_bound 3) (frequency [ (4, return 0); (1, int_bound 2) ]) in
  list_size (int_bound 200)
    (frequency
       [
         (6, map (fun (n, i) -> Beat (n, i)) peer);
         (1, map (fun (n, i) -> Forget (n, i)) peer);
         (4, map (fun ms -> Advance ms) (int_range 1 60));
       ])

type change = Suspected of Proc_id.t | Unsuspected of Proc_id.t

(* Random schedules of heartbeats, forgets and ticks: after every step the
   detector's set, its [on_change] calls and its Suspect/Unsuspect events
   equal what the reference gives when it rebuilds on every heartbeat,
   forget and tick. *)
let fd_fast_path_property =
  QCheck.Test.make ~name:"reachable set and events equal the rebuild"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_fd_op ops))
       fd_ops)
    (fun ops ->
      let obs = Recorder.create ~level:Recorder.Protocol () in
      let sim = Sim.create ~obs () in
      let me = Proc_id.initial 0 in
      let r =
        { sim; me; config = Fd.default_config; last_heard = Hashtbl.create 8 }
      in
      let expected = ref [ me ] in
      let expected_sets = ref [] and expected_events = ref [] in
      let rebuild () =
        let next = compute_reachable r in
        let prev = !expected in
        let missing a b =
          List.filter (fun p -> not (List.exists (Proc_id.equal p) b)) a
        in
        if not (List.equal Proc_id.equal next prev) then begin
          expected := next;
          expected_sets := next :: !expected_sets;
          expected_events :=
            List.rev_append
              (List.map (fun p -> Suspected p) (missing prev next)
              @ List.filter_map
                  (fun p ->
                    if Proc_id.equal p me then None else Some (Unsuspected p))
                  (missing next prev))
              !expected_events
        end
      in
      let sets = ref [] in
      let fd =
        Fd.create sim ~me ~universe:[ 0; 1; 2; 3 ] ~config:r.config
          ~send_heartbeat:(fun ~dst_node -> if dst_node = 1 then rebuild ())
          ~on_change:(fun set -> sets := set :: !sets)
      in
      let events () =
        List.filter_map
          (fun (e : Recorder.entry) ->
            match e.Recorder.event with
            | Event.Suspect { peer; _ } -> Some (Suspected peer)
            | Event.Unsuspect { peer; _ } -> Some (Unsuspected peer)
            | _ -> None)
          (Recorder.entries obs)
      in
      List.for_all
        (fun op ->
          (match op with
          | Beat (node, inc) ->
              let from = Proc_id.make ~node ~inc in
              Fd.heartbeat_received fd ~from;
              if not (Proc_id.equal from me) then begin
                Hashtbl.replace r.last_heard from (Sim.now sim);
                rebuild ()
              end
          | Forget (node, inc) ->
              let p = Proc_id.make ~node ~inc in
              Fd.forget fd p;
              if Hashtbl.mem r.last_heard p then begin
                Hashtbl.remove r.last_heard p;
                rebuild ()
              end
          | Advance ms ->
              ignore
                (Sim.run ~until:(Sim.now sim +. (0.001 *. float_of_int ms)) sim));
          List.equal Proc_id.equal (Fd.reachable fd) !expected
          && !sets = !expected_sets
          && events () = List.rev !expected_events)
        ops)

let () =
  Alcotest.run "vs_fd"
    [
      ( "detector",
        [
          Alcotest.test_case "mutual detection" `Quick test_mutual_detection;
          Alcotest.test_case "crash detection latency" `Quick test_crash_detection;
          Alcotest.test_case "false suspicion and repair" `Quick
            test_partition_false_suspicion_and_repair;
          Alcotest.test_case "recovery incarnation" `Quick
            test_recovery_new_incarnation;
          Alcotest.test_case "forget" `Quick test_forget;
          Alcotest.test_case "change notifications" `Quick
            test_change_notifications;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "stop" `Quick test_stop;
          QCheck_alcotest.to_alcotest fd_fast_path_property;
        ] );
    ]
