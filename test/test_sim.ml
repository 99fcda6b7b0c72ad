(* Tests for the discrete-event engine: ordering, tie-breaking,
   cancellation, horizons, determinism, and the event queue against a
   sorted-list model. *)

module Sim = Vs_sim.Sim
module Recorder = Vs_obs.Recorder
module Event = Vs_obs.Event

let check = Alcotest.check

let test_time_order () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.after sim 0.3 (fun () -> log := 3 :: !log));
  ignore (Sim.after sim 0.1 (fun () -> log := 1 :: !log));
  ignore (Sim.after sim 0.2 (fun () -> log := 2 :: !log));
  check Alcotest.bool "quiescent" true (Sim.run sim = Sim.Quiescent);
  check (Alcotest.list Alcotest.int) "fired in time order" [ 1; 2; 3 ]
    (List.rev !log)

let test_fifo_tiebreak () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 10 do
    ignore (Sim.after sim 1.0 (fun () -> log := i :: !log))
  done;
  ignore (Sim.run sim);
  check (Alcotest.list Alcotest.int) "same-time events fire in schedule order"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.rev !log)

let test_clock_advances () =
  let sim = Sim.create () in
  let seen = ref [] in
  ignore (Sim.after sim 0.5 (fun () -> seen := Sim.now sim :: !seen));
  ignore (Sim.after sim 1.5 (fun () -> seen := Sim.now sim :: !seen));
  ignore (Sim.run sim);
  check (Alcotest.list (Alcotest.float 1e-9)) "now() at fire times" [ 0.5; 1.5 ]
    (List.rev !seen)

let test_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.after sim 0.1 (fun () -> fired := true) in
  Sim.cancel h;
  ignore (Sim.run sim);
  check Alcotest.bool "cancelled event did not fire" false !fired;
  check Alcotest.int "nothing processed" 0 (Sim.events_processed sim)

let test_cancel_idempotent () =
  let sim = Sim.create () in
  let h = Sim.after sim 0.1 (fun () -> ()) in
  Sim.cancel h;
  Sim.cancel h;
  ignore (Sim.run sim);
  check Alcotest.int "no explosion" 0 (Sim.events_processed sim)

let test_until_horizon () =
  let sim = Sim.create () in
  let fired = ref [] in
  ignore (Sim.after sim 1.0 (fun () -> fired := 1 :: !fired));
  ignore (Sim.after sim 3.0 (fun () -> fired := 3 :: !fired));
  let reason = Sim.run ~until:2.0 sim in
  check Alcotest.bool "stopped at horizon" true (reason = Sim.Reached_until);
  check (Alcotest.list Alcotest.int) "only early event" [ 1 ] !fired;
  check (Alcotest.float 1e-9) "clock at horizon" 2.0 (Sim.now sim);
  ignore (Sim.run sim);
  check (Alcotest.list Alcotest.int) "resumes past horizon" [ 3; 1 ] !fired

let test_event_budget () =
  let sim = Sim.create () in
  for _ = 1 to 10 do
    ignore (Sim.after sim 0.1 (fun () -> ()))
  done;
  let reason = Sim.run ~max_events:4 sim in
  check Alcotest.bool "budget hit" true (reason = Sim.Event_budget);
  check Alcotest.int "exactly 4" 4 (Sim.events_processed sim)

let test_nested_scheduling () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Sim.after sim 0.1 (fun () ->
         log := "outer" :: !log;
         ignore (Sim.after sim 0.1 (fun () -> log := "inner" :: !log))));
  ignore (Sim.run sim);
  check (Alcotest.list Alcotest.string) "nested events run" [ "outer"; "inner" ]
    (List.rev !log)

let test_past_rejected () =
  let sim = Sim.create () in
  ignore (Sim.after sim 1.0 (fun () -> ()));
  ignore (Sim.run sim);
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  check Alcotest.bool "at past raises" true
    (raises (fun () -> Sim.at sim 0.5 (fun () -> ())));
  check Alcotest.bool "negative delay raises" true
    (raises (fun () -> Sim.after sim (-0.1) (fun () -> ())));
  (* A NaN time would sort first and leave the clock at nan; a NaN horizon
     would never be reached. *)
  check Alcotest.bool "at nan raises" true
    (raises (fun () -> Sim.at sim Float.nan (fun () -> ())));
  check Alcotest.bool "nan delay raises" true
    (raises (fun () -> Sim.after sim Float.nan (fun () -> ())));
  check Alcotest.bool "run until nan raises" true
    (raises (fun () -> Sim.run ~until:Float.nan sim));
  check Alcotest.int "nothing was scheduled" 0 (Sim.pending sim)

let test_pending_count () =
  let sim = Sim.create () in
  let h1 = Sim.after sim 0.1 (fun () -> ()) in
  ignore (Sim.after sim 0.2 (fun () -> ()));
  check Alcotest.int "two pending" 2 (Sim.pending sim);
  Sim.cancel h1;
  check Alcotest.int "one pending after cancel" 1 (Sim.pending sim)

(* The count is maintained live (no heap rebuild); in particular a cancelled
   entry that is later lazily skipped by pop must not be double-counted. *)
let test_pending_cancel_then_pop () =
  let sim = Sim.create () in
  let fired = ref [] in
  let h1 = Sim.after sim 0.1 (fun () -> fired := 1 :: !fired) in
  ignore (Sim.after sim 0.2 (fun () -> fired := 2 :: !fired));
  ignore (Sim.after sim 0.3 (fun () -> fired := 3 :: !fired));
  check Alcotest.int "three pending" 3 (Sim.pending sim);
  Sim.cancel h1;
  check Alcotest.int "two after cancel" 2 (Sim.pending sim);
  Sim.cancel h1;
  check Alcotest.int "re-cancel does not decrement" 2 (Sim.pending sim);
  (* This pop skips the cancelled h1 and fires the 0.2 event. *)
  check Alcotest.bool "step fires" true (Sim.step sim);
  check (Alcotest.list Alcotest.int) "skipped the cancelled head" [ 2 ] !fired;
  check Alcotest.int "one pending after pop" 1 (Sim.pending sim);
  ignore (Sim.run sim);
  check Alcotest.int "drained" 0 (Sim.pending sim);
  check Alcotest.int "only live events processed" 2 (Sim.events_processed sim)

(* A handle stays valid after its event fires; cancelling it then must not
   touch the live count. *)
let test_cancel_after_fire () =
  let sim = Sim.create () in
  let h = Sim.after sim 0.1 (fun () -> ()) in
  ignore (Sim.after sim 0.2 (fun () -> ()));
  check Alcotest.bool "step fires" true (Sim.step sim);
  Sim.cancel h;
  check Alcotest.int "still one pending" 1 (Sim.pending sim)

(* Every event the queue pops, fired or cancelled, lets go of its closure.
   Each thunk captures a fresh block that only a weak array also holds;
   fired thunks schedule a child capturing another, so slots freed by pops
   are reused while the queue grows past its initial 16. *)
let test_popped_closures_released () =
  let sim = Sim.create () in
  let n = 100 in
  let blocks = Weak.create (2 * n) in
  let fired = ref 0 in
  let capture i =
    let block = Bytes.make 8 'x' in
    Weak.set blocks i (Some block);
    fun () -> fired := !fired + Bytes.length block
  in
  for i = 0 to n - 1 do
    let own = capture i and child = capture (n + i) in
    let h =
      Sim.after sim
        (float_of_int (i mod 7))
        (fun () ->
          own ();
          ignore (Sim.after sim 0.5 child))
    in
    if i mod 3 = 0 then Sim.cancel h
  done;
  check Alcotest.bool "quiescent" true (Sim.run sim = Sim.Quiescent);
  check Alcotest.int "every uncancelled thunk and its child fired"
    (2 * 8 * (n - 34)) !fired;
  Gc.full_major ();
  let kept = List.filter (Weak.check blocks) (List.init (2 * n) Fun.id) in
  check (Alcotest.list Alcotest.int) "no popped closure is kept alive" [] kept;
  (* The engine itself is still live across the collection. *)
  check Alcotest.int "nothing pending" 0 (Sim.pending sim)

let test_step () =
  let sim = Sim.create () in
  let n = ref 0 in
  ignore (Sim.after sim 0.1 (fun () -> incr n));
  ignore (Sim.after sim 0.2 (fun () -> incr n));
  check Alcotest.bool "step 1" true (Sim.step sim);
  check Alcotest.int "one fired" 1 !n;
  check Alcotest.bool "step 2" true (Sim.step sim);
  check Alcotest.bool "step empty" false (Sim.step sim)

let test_trace () =
  let sim = Sim.create () in
  ignore (Sim.after sim 0.5 (fun () -> Sim.record sim ~component:"test" "hello"));
  ignore (Sim.run sim);
  match Recorder.entries (Sim.obs sim) with
  | [ e ] ->
      check (Alcotest.float 1e-9) "trace time" 0.5 e.Recorder.time;
      check Alcotest.string "trace component" "test" (Event.component e.event);
      check Alcotest.string "trace message" "hello" (Event.render e.event)
  | other -> Alcotest.failf "expected one entry, got %d" (List.length other)

(* Determinism: the same seeded program produces the same event history. *)
let run_random_program seed =
  let sim = Sim.create ~seed () in
  let rng = Sim.fork_rng sim in
  let log = Buffer.create 64 in
  let rec spawn depth =
    if depth < 64 then
      ignore
        (Sim.after sim (Vs_util.Rng.uniform rng 0.001 0.1) (fun () ->
             Buffer.add_string log (Printf.sprintf "%f;" (Sim.now sim));
             if Vs_util.Rng.bool rng 0.7 then spawn (depth + 1)))
  in
  spawn 0;
  spawn 0;
  ignore (Sim.run sim);
  Buffer.contents log

let test_determinism () =
  check Alcotest.string "identical runs" (run_random_program 99L)
    (run_random_program 99L);
  check Alcotest.bool "different seeds differ" true
    (run_random_program 99L <> run_random_program 100L)

let sim_order_property =
  QCheck.Test.make ~name:"events always fire in nondecreasing time order"
    ~count:100
    QCheck.(small_list (float_bound_inclusive 10.))
    (fun delays ->
      let sim = Sim.create () in
      let times = ref [] in
      List.iter
        (fun d ->
          ignore
            (Sim.after sim (Float.abs d) (fun () ->
                 times := Sim.now sim :: !times)))
        delays;
      ignore (Sim.run sim);
      let fired = List.rev !times in
      let rec nondecreasing = function
        | a :: b :: rest -> a <= b && nondecreasing (b :: rest)
        | _ -> true
      in
      nondecreasing fired && List.length fired = List.length delays)

(* The event queue against a sorted-list model.  Under random interleavings
   of [at], [after], [cancel] and [step], events fire in (time, scheduling
   order), [now] reads the fired event's time and [pending] counts the live
   events.  Delays are multiples of 0.25, so equal times (and the seq
   tie-break) are common.  Every case opens with 40 [after]s, past the
   queue's initial 16 slots, so growth is always exercised. *)
type queue_op = At of int | After of int | Cancel of int | Step

let show_queue_op = function
  | At k -> Printf.sprintf "at+%d" k
  | After k -> Printf.sprintf "after%d" k
  | Cancel i -> Printf.sprintf "cancel%d" i
  | Step -> "step"

let queue_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (3, map (fun k -> At k) (int_bound 8));
        (3, map (fun k -> After k) (int_bound 8));
        (2, map (fun i -> Cancel i) (int_bound 10_000));
        (3, return Step);
      ]
  in
  map2 ( @ ) (list_repeat 40 (map (fun k -> After k) (int_bound 8)))
    (list_size (int_bound 300) op)

let by_time_then_schedule (ta, ia) (tb, ib) =
  match Float.compare ta tb with 0 -> Int.compare ia ib | c -> c

let queue_model_property =
  QCheck.Test.make ~name:"queue fires in (time, schedule) order" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map show_queue_op ops))
       queue_ops)
    (fun ops ->
      let sim = Sim.create () in
      let fired = ref [] in
      let handles = Hashtbl.create 64 in
      (* live events as (time, schedule index) *)
      let model = ref [] in
      let scheduled = ref 0 in
      let ok = ref true in
      let expect b = ok := !ok && b in
      List.iter
        (fun op ->
          (match op with
          | At k | After k ->
              let id = !scheduled in
              incr scheduled;
              let delay = 0.25 *. float_of_int k in
              let time = Sim.now sim +. delay in
              let thunk () = fired := id :: !fired in
              let h =
                match op with
                | At _ -> Sim.at sim time thunk
                | _ -> Sim.after sim delay thunk
              in
              Hashtbl.replace handles id h;
              model := (time, id) :: !model
          | Cancel i ->
              if !scheduled > 0 then begin
                let id = i mod !scheduled in
                Sim.cancel (Hashtbl.find handles id);
                model := List.filter (fun (_, j) -> j <> id) !model
              end
          | Step -> (
              match List.sort by_time_then_schedule !model with
              | [] -> expect (not (Sim.step sim))
              | (time, id) :: rest ->
                  expect (Sim.step sim);
                  expect (match !fired with j :: _ -> j = id | [] -> false);
                  expect (Float.equal (Sim.now sim) time);
                  model := rest));
          expect (Sim.pending sim = List.length !model))
        ops;
      let before_drain = List.length !fired in
      ignore (Sim.run sim);
      let drained =
        List.rev !fired |> List.filteri (fun i _ -> i >= before_drain)
      in
      !ok
      && drained = List.map snd (List.sort by_time_then_schedule !model)
      && Sim.pending sim = 0)

let () =
  Alcotest.run "vs_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_time_order;
          Alcotest.test_case "FIFO tie-break" `Quick test_fifo_tiebreak;
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "cancel" `Quick test_cancel;
          Alcotest.test_case "cancel idempotent" `Quick test_cancel_idempotent;
          Alcotest.test_case "until horizon" `Quick test_until_horizon;
          Alcotest.test_case "event budget" `Quick test_event_budget;
          Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
          Alcotest.test_case "past rejected" `Quick test_past_rejected;
          Alcotest.test_case "pending count" `Quick test_pending_count;
          Alcotest.test_case "pending: cancel then pop" `Quick
            test_pending_cancel_then_pop;
          Alcotest.test_case "cancel after fire" `Quick test_cancel_after_fire;
          Alcotest.test_case "popped closures released" `Quick
            test_popped_closures_released;
          Alcotest.test_case "single step" `Quick test_step;
          Alcotest.test_case "trace" `Quick test_trace;
          Alcotest.test_case "determinism" `Quick test_determinism;
          QCheck_alcotest.to_alcotest sim_order_property;
          QCheck_alcotest.to_alcotest queue_model_property;
        ] );
    ]
