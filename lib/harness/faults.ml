module Sim = Vs_sim.Sim
module Rng = Vs_util.Rng
module Listx = Vs_util.Listx
module Hashtblx = Vs_util.Hashtblx

(* Re-export so harness and explorer code can build and match corruption
   kinds without reaching into lib/vsync. *)
type corruption = Vs_vsync.Endpoint.corruption =
  | Seq_skew of int
  | Stability_smear of int * int
  | View_skew of int
  | Deps_truncate of int * int

type action =
  | Partition of int list list
  | Heal
  | Crash of int
  | Recover of int
  | Corrupt of int * corruption

type script = (float * action) list

let corruption_to_string = function
  | Seq_skew k -> Printf.sprintf "seq-skew %d" k
  | Stability_smear (node, amount) ->
      Printf.sprintf "stability-smear %d %d" node amount
  | View_skew k -> Printf.sprintf "view-skew %d" k
  | Deps_truncate (node, k) -> Printf.sprintf "deps-truncate %d %d" node k

let to_string = function
  | Partition comps ->
      Printf.sprintf "partition [%s]"
        (String.concat " | "
           (List.map
              (fun nodes -> String.concat "," (List.map string_of_int nodes))
              comps))
  | Heal -> "heal"
  | Crash node -> Printf.sprintf "crash %d" node
  | Recover node -> Printf.sprintf "recover %d" node
  | Corrupt (node, c) ->
      Printf.sprintf "corrupt %d %s" node (corruption_to_string c)

let schedule sim script ~apply =
  List.iter
    (fun (time, action) -> ignore (Sim.at sim time (fun () -> apply action)))
    script

(* Split [nodes] into 2 or 3 random non-empty components. *)
let random_partition rng nodes =
  let shuffled = Rng.shuffle rng nodes in
  let n = List.length shuffled in
  let parts = if n >= 3 && Rng.bool rng 0.3 then 3 else 2 in
  if n < 2 then [ shuffled ]
  else begin
    let cut1 = 1 + Rng.int rng (n - 1) in
    if parts = 2 || n - cut1 < 2 then
      [ Listx.take cut1 shuffled; Listx.drop cut1 shuffled ]
    else begin
      let rest = Listx.drop cut1 shuffled in
      let cut2 = 1 + Rng.int rng (List.length rest - 1) in
      [ Listx.take cut1 shuffled; Listx.take cut2 rest; Listx.drop cut2 rest ]
    end
  end

let random_script rng ~nodes ~start ~duration ~mean_gap ?(crash_weight = 1.0)
    ?(partition_weight = 1.0) ?(corrupt_weight = 0.0) () =
  if nodes = [] then invalid_arg "Faults.random_script: no nodes";
  let deadline = start +. duration in
  let crashed = Hashtbl.create 8 in
  let partitioned = ref false in
  let corrupted = ref false in
  let rec go time acc =
    let time = time +. Rng.exponential rng mean_gap in
    if time >= deadline then List.rev acc
    else begin
      let alive = List.filter (fun n -> not (Hashtbl.mem crashed n)) nodes in
      let choices =
        (if List.length alive > 1 then [ (crash_weight, `Crash) ] else [])
        @ (if Hashtbl.length crashed > 0 then [ (1.0, `Recover) ] else [])
        @ (if List.length alive > 1 then [ (partition_weight, `Partition) ] else [])
        @ (if !partitioned then [ (1.0, `Heal) ] else [])
        (* The corrupt entry only exists when transient faults are enabled,
           so the draw sequence — and thus every script — is byte-identical
           to the pre-transient generator when the weight is 0. *)
        @ if corrupt_weight > 0. && alive <> [] then
            [ (corrupt_weight, `Corrupt) ]
          else []
      in
      match choices with
      | [] -> go time acc
      | _ ->
          let total = List.fold_left (fun a (w, _) -> a +. w) 0. choices in
          let pickpoint = Rng.float rng *. total in
          let rec pick acc_w = function
            | [ (_, c) ] -> c
            | (w, c) :: rest ->
                if pickpoint < acc_w +. w then c else pick (acc_w +. w) rest
            | [] -> assert false
          in
          let action =
            match pick 0. choices with
            | `Crash ->
                let victim = Rng.pick rng alive in
                Hashtbl.replace crashed victim ();
                Crash victim
            | `Recover ->
                let nodes_down = Hashtblx.sorted_keys ~cmp:Int.compare crashed in
                let lucky = Rng.pick rng nodes_down in
                Hashtbl.remove crashed lucky;
                Recover lucky
            | `Partition ->
                partitioned := true;
                Partition (random_partition rng nodes)
            | `Heal ->
                partitioned := false;
                Heal
            | `Corrupt ->
                let target = Rng.pick rng alive in
                let sign mag = if Rng.bool rng 0.5 then mag else -mag in
                (* A member-and-amount kind draws the amount first: every
                   seeded transient script depends on this order. *)
                let kind =
                  match Rng.int rng 4 with
                  | 0 -> Seq_skew (sign (1 + Rng.int rng 5))
                  | 1 ->
                      let amount = 1 + Rng.int rng 8 in
                      let member = Rng.pick rng alive in
                      Stability_smear (member, amount)
                  | 2 -> View_skew (sign (1 + Rng.int rng 3))
                  | _ ->
                      let k = 1 + Rng.int rng 4 in
                      let member = Rng.pick rng alive in
                      Deps_truncate (member, k)
                in
                corrupted := true;
                Corrupt (target, kind)
          in
          go time ((time, action) :: acc)
    end
  in
  let churn = go start [] in
  (* Closing sequence: heal and recover everything so the run can be
     checked in a stabilized state. *)
  let closing =
    let t0 = deadline in
    let recoveries =
      Hashtblx.sorted_keys ~cmp:Int.compare crashed
      |> List.mapi (fun i n -> (t0 +. (0.01 *. float_of_int (i + 1)), Recover n))
    in
    (t0, Heal) :: recoveries
  in
  (* Transient scripts get a membership kick after everything is healed: a
     crash/recover pair that forces at least two fresh view installations
     after the last corruption, so the stabilization oracle's recovery
     bound is reachable within the quiet tail. *)
  let kick =
    if !corrupted && List.length nodes > 1 then begin
      let victim = Rng.pick rng nodes in
      [ (deadline +. 0.15, Crash victim); (deadline +. 0.25, Recover victim) ]
    end
    else []
  in
  churn @ closing @ kick
