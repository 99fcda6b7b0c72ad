module Faults = Vs_harness.Faults
module Net = Vs_net.Net

type stats = { attempts : int; accepted : int }

(* ---------- candidate reductions ---------- *)

let with_script spec script = { spec with Campaign.script }

(* Remove the contiguous chunk [i, i+size) of the script. *)
let drop_chunk spec i size =
  let script =
    List.filteri (fun j _ -> j < i || j >= i + size) spec.Campaign.script
  in
  with_script spec script

let chunk_removals spec =
  let len = List.length spec.Campaign.script in
  let rec sizes s acc = if s >= 1 then sizes (s / 2) (s :: acc) else acc in
  let sizes =
    if len = 0 then [] else List.sort_uniq Int.compare (sizes (len / 2) [ 1 ])
  in
  (* Largest chunks first. *)
  List.concat_map
    (fun size ->
      let rec offsets i acc =
        if i + size <= len then offsets (i + size) (i :: acc) else List.rev acc
      in
      List.map (fun i -> drop_chunk spec i size) (offsets 0 []))
    (List.rev sizes)

(* Remove the highest node: drop its crash/recover actions, take it out of
   partition components, and degrade partitions left with one component to
   heals. *)
let remove_top_node spec =
  if spec.Campaign.nodes <= 1 then []
  else begin
    let victim = spec.Campaign.nodes - 1 in
    let script =
      List.filter_map
        (fun (time, action) ->
          match action with
          | Faults.Crash n when n = victim -> None
          | Faults.Recover n when n = victim -> None
          | Faults.Corrupt (n, _) when n = victim -> None
          (* A corruption aimed at a surviving node but parameterized by the
             victim (smear source, truncated sender) retargets to node 0 —
             the member_for_node fallback would make it a self-corruption
             anyway, and keeping the action keeps the failure reachable. *)
          | Faults.Corrupt (n, Faults.Stability_smear (m, amount))
            when m = victim ->
              Some (time, Faults.Corrupt (n, Faults.Stability_smear (0, amount)))
          | Faults.Corrupt (n, Faults.Deps_truncate (m, k)) when m = victim ->
              Some (time, Faults.Corrupt (n, Faults.Deps_truncate (0, k)))
          | Faults.Crash _ | Faults.Recover _ | Faults.Heal
          | Faults.Corrupt _ ->
              Some (time, action)
          | Faults.Partition comps -> (
              let comps =
                List.filter_map
                  (fun comp ->
                    match List.filter (fun n -> n <> victim) comp with
                    | [] -> None
                    | comp -> Some comp)
                  comps
              in
              match comps with
              | [] | [ _ ] -> Some (time, Faults.Heal)
              | comps -> Some (time, Faults.Partition comps)))
        spec.Campaign.script
    in
    [ { spec with Campaign.nodes = victim; script } ]
  end

(* Coarsen each partition action: merge its last two components. *)
let partition_merges spec =
  List.concat_map
    (fun i ->
      match List.nth spec.Campaign.script i with
      | time, Faults.Partition comps when List.length comps >= 3 ->
          let rec merge_last = function
            | [ a; b ] -> [ a @ b ]
            | x :: rest -> x :: merge_last rest
            | [] -> []
          in
          let script =
            List.mapi
              (fun j entry ->
                if j = i then (time, Faults.Partition (merge_last comps))
                else entry)
              spec.Campaign.script
          in
          [ with_script spec script ]
      | _, _ -> [])
    (List.init (List.length spec.Campaign.script) (fun i -> i))

let link_simplifications spec =
  let net = spec.Campaign.net in
  let candidates = ref [] in
  let add c = candidates := c :: !candidates in
  if spec.Campaign.traffic_gap > 0. then
    add { spec with Campaign.traffic_gap = 0. };
  if net.Net.drop_prob > 0. then
    add { spec with Campaign.net = { net with Net.drop_prob = 0. } };
  if net.Net.dup_prob > 0. then
    add { spec with Campaign.net = { net with Net.dup_prob = 0. } };
  let default_max = Net.default_config.Net.delay_max in
  if net.Net.delay_max > default_max then
    add { spec with Campaign.net = { net with Net.delay_max = default_max } };
  List.rev !candidates

(* Compress the schedule toward its first action and tighten the horizon.
   Only offered while the span is still meaningfully long, so repeated
   halving terminates. *)
let time_compressions spec =
  match spec.Campaign.script with
  | [] ->
      let tight = 2.0 in
      if spec.Campaign.horizon > tight then
        [ { spec with Campaign.horizon = tight; traffic_until = min spec.Campaign.traffic_until tight } ]
      else []
  | script ->
      let t0 = List.fold_left (fun a (t, _) -> min a t) infinity script in
      let t_max = List.fold_left (fun a (t, _) -> max a t) 0. script in
      let halved =
        if t_max -. t0 > 0.5 then
          let scale t = t0 +. ((t -. t0) *. 0.5) in
          [
            {
              spec with
              Campaign.script = List.map (fun (t, a) -> (scale t, a)) script;
              traffic_until = scale spec.Campaign.traffic_until;
              horizon = scale spec.Campaign.horizon;
            };
          ]
        else []
      in
      let tight_horizon = t_max +. 2.0 in
      let tightened =
        if spec.Campaign.horizon > tight_horizon +. 0.25 then
          [
            {
              spec with
              Campaign.horizon = tight_horizon;
              traffic_until = min spec.Campaign.traffic_until tight_horizon;
            };
          ]
        else []
      in
      halved @ tightened

let candidates spec =
  chunk_removals spec @ remove_top_node spec @ partition_merges spec
  @ link_simplifications spec @ time_compressions spec

(* ---------- the greedy ddmin loop ---------- *)

let max_attempts = 400

let shrink ~failing spec =
  if not (failing spec) then
    invalid_arg "Shrink.shrink: the starting spec does not fail";
  let attempts = ref 0 in
  let accepted = ref 0 in
  let rec improve spec =
    let rec try_candidates = function
      | [] -> spec (* local minimum *)
      | candidate :: rest ->
          if !attempts >= max_attempts then spec
          else if Campaign.equal_spec candidate spec then try_candidates rest
          else begin
            incr attempts;
            if failing candidate then begin
              incr accepted;
              improve candidate
            end
            else try_candidates rest
          end
    in
    if !attempts >= max_attempts then spec else try_candidates (candidates spec)
  in
  let result = improve spec in
  (result, { attempts = !attempts; accepted = !accepted })
