(* Regression diffing for the machine-readable BENCH_*.json artifacts.

   Two documents are flattened to dotted key paths (arrays of records keyed
   by their "id"/"name" field, so reordering arms or experiments does not
   produce spurious diffs), then every numeric leaf is judged against a
   per-key-class threshold:

   - exact keys (zero-alloc booleans, gates): any worsening is a
     regression, no tolerance;
   - counted-words keys (words_per_call): deterministic by construction,
     so any increase is a regression;
   - lower-is-better measurements (alloc bytes, overhead ratios, wall
     clock): regression when the relative increase exceeds the class
     threshold;
   - higher-is-better measurements (ops/s, speedups): mirrored;
   - everything else is informational — changes are reported but never
     gate.

   Wall-clock keys are inherently noisy; they get a wider threshold and
   callers that want a flake-free gate (the bench quick profile) can filter
   to [gating_classes] only.  The CLI [vscli bench diff] exits non-zero on
   any regression — that is the CI contract. *)

type cls =
  | Exact  (* no tolerance; bool false-ing or value change = regression *)
  | Lower of float  (* lower is better; threshold = relative tolerance *)
  | Higher of float  (* higher is better *)
  | Info  (* reported, never gates *)

type verdict = Ok | Improved | Regressed | Changed | Added | Removed

type row = {
  key : string;
  r_class : cls;
  r_old : Json.t option;
  r_new : Json.t option;
  r_verdict : verdict;
  r_note : string;
}

(* Substring match against the last path segment and the full path — the
   key namespaces in BENCH_*.json are flat enough that this is
   unambiguous. *)
let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Default relative tolerance for measured (non-deterministic) keys. *)
let default_threshold = 0.20

(* Wall clock is the noisiest thing we record; median-of-3 (bench side)
   plus a wide tolerance keeps the gate meaningful without flaking. *)
let wall_factor = 2.5

let classify ?(threshold = default_threshold) key =
  let has sub = contains ~sub key in
  if has "zero_alloc_contract" then Info
  else if has "zero_alloc" || has "gate_" || has "consistent_with_stall" then
    Exact
  else if has "words_per_call" || has "findings" then Lower 0.
  (* vspath critical-path blocks: the straggler identity is churn, the
     per-kind seconds are sim-deterministic measurements (lower is
     better); only the consistency boolean above gates deterministically *)
  else if has "straggler" then Info
  else if has "critical_path" then Lower threshold
  (* higher-is-better first: "ops_per_wall_s" would otherwise be caught
     by the "wall_s" wall-clock rule below *)
  else if has "ops_per_wall_s" || has "speedup" then Higher threshold
  else if has "wall_ms" || has "wall_s" then Lower (wall_factor *. threshold)
  else if has "alloc_bytes" || has "overhead_ratio" then Lower threshold
  else Info

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> Json.of_string text

(* --- flattening ----------------------------------------------------------- *)

let id_of_arr_elem v =
  match Option.bind (Json.member "id" v) Json.to_string_opt with
  | Some s -> Some s
  | None -> Option.bind (Json.member "name" v) Json.to_string_opt

let flatten (doc : Json.t) =
  let acc = ref [] in
  let leaf path v = acc := (path, v) :: !acc in
  let join p k = if p = "" then k else p ^ "." ^ k in
  let rec go path (v : Json.t) =
    match v with
    | Json.Obj fields -> List.iter (fun (k, sub) -> go (join path k) sub) fields
    | Json.Arr elems
      when elems <> [] && List.for_all (fun e -> id_of_arr_elem e <> None) elems
      ->
        List.iter
          (fun e ->
            match id_of_arr_elem e with
            | Some id -> go (join path (Openmetrics.sanitize id)) e
            | None -> ())
          elems
    | Json.Arr _ | Json.Null | Json.Bool _ | Json.Int _ | Json.Float _
    | Json.Str _ ->
        leaf path v
  in
  go "" doc;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

(* --- judging one key ------------------------------------------------------ *)

let num v = Json.to_float_opt v

let pct delta = Printf.sprintf "%+.1f%%" (delta *. 100.)

let judge cls old_v new_v =
  let changed = Json.to_string old_v <> Json.to_string new_v in
  if not changed then (Ok, "=")
  else
    match cls with
    | Info -> (Changed, "changed")
    | Exact -> (
        match (old_v, new_v) with
        | Json.Bool true, Json.Bool false -> (Regressed, "true -> false")
        | Json.Bool false, Json.Bool true -> (Improved, "false -> true")
        | _ -> (Regressed, "exact key changed"))
    | Lower threshold | Higher threshold -> (
        (* [gain x] is the change [x] signed so that better is positive *)
        let gain x = match cls with Lower _ -> -.x | _ -> x in
        match (num old_v, num new_v) with
        | Some o, Some n when o <> 0. ->
            let delta = (n -. o) /. Float.abs o in
            if gain delta < -.threshold then (Regressed, pct delta)
            else if gain delta > threshold then (Improved, pct delta)
            else (Ok, pct delta)
        | Some o, Some n ->
            (* old = 0: any nonzero new is a change; direction decides *)
            ((if gain (n -. o) < 0. then Regressed else Improved), "from 0")
        | _ -> (Changed, "non-numeric"))

let diff ?threshold ~old_doc ~new_doc () =
  let row key r_old r_new =
    let r_class = classify ?threshold key in
    let r_verdict, r_note =
      match (r_old, r_new) with
      | Some o, Some n -> judge r_class o n
      | Some _, None -> (Removed, "removed")
      | None, _ -> (Added, "added")
    in
    { key; r_class; r_old; r_new; r_verdict; r_note }
  in
  let rec merge olds news acc =
    let emit key o n olds news = merge olds news (row key o n :: acc) in
    match (olds, news) with
    | [], [] -> List.rev acc
    | (k, v) :: rest, [] -> emit k (Some v) None rest []
    | [], (k, v) :: rest -> emit k None (Some v) [] rest
    | (ko, vo) :: ro, (kn, vn) :: rn ->
        let c = String.compare ko kn in
        if c < 0 then emit ko (Some vo) None ro news
        else if c > 0 then emit kn None (Some vn) olds rn
        else emit ko (Some vo) (Some vn) ro rn
  in
  merge (flatten old_doc) (flatten new_doc) []

let regressions rows =
  List.filter (fun r -> match r.r_verdict with Regressed -> true | _ -> false) rows

(* The deterministic subset — exact keys and zero-tolerance counts — safe
   to gate in CI without wall-clock flake. *)
let deterministic_regressions rows =
  List.filter
    (fun r ->
      match (r.r_verdict, r.r_class) with
      | Regressed, Exact | Regressed, Lower 0. -> true
      | _ -> false)
    rows

let exit_code rows = if regressions rows <> [] then 1 else 0

(* --- rendering ------------------------------------------------------------ *)

let value_repr = function
  | None -> "-"
  | Some v -> Json.to_string v

let to_table ?(all = false) rows =
  let shown =
    if all then rows
    else
      List.filter
        (fun r -> match r.r_verdict with Ok -> false | _ -> true)
        rows
  in
  let table =
    Vs_stats.Table.create
      ~title:
        (if all then "bench diff: all keys"
         else "bench diff: changed keys (regressions / improvements / churn)")
      ~columns:[ "key"; "old"; "new"; "delta"; "verdict" ]
  in
  let verdict_str = function
    | Ok -> "ok"
    | Improved -> "improved"
    | Regressed -> "REGRESSED"
    | Changed -> "changed"
    | Added -> "added"
    | Removed -> "removed"
  in
  List.iter
    (fun r ->
      Vs_stats.Table.add_row table
        [
          r.key;
          value_repr r.r_old;
          value_repr r.r_new;
          r.r_note;
          verdict_str r.r_verdict;
        ])
    shown;
  table

let summary rows =
  let count v =
    List.length
      (List.filter (fun r -> r.r_verdict = v) rows)
  in
  Printf.sprintf
    "bench diff: %d keys, %d regressed, %d improved, %d changed, %d \
     added, %d removed"
    (List.length rows) (count Regressed) (count Improved) (count Changed)
    (count Added) (count Removed)
