(* vsbench — the repository's benchmark: four seeded workloads, end-to-end
   wall-clock and latency metrics, and a traced run for per-layer metrics.

   Usage:
     vsbench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                 [--trace-file FILE]
         One run of one workload in this process.  Prints every metric by
         name with its unit; the last line is the run's JSON record.  With
         --trace 0 the record holds the end-to-end metrics, with --trace 1
         the per-layer ones, and the phase spans are written to FILE
         (default vsbench-trace-NAME.json) as Chrome trace JSON.
     vsbench.exe --workload all|NAME --reps N [--seed N] [--seconds S]
                 [--trace 0|1]
         N fresh processes per workload, one at a time, seeds N, N+1, ...;
         reports the median and quartiles of every metric and flags as
         unresolved any whose spread exceeds its bound in BENCHMARK.json.
     vsbench.exe --smoke [--workload NAME|all]
         Tiny sizes, traced.  With all (the default) each workload runs
         twice in fresh processes: checks pass and every deterministic
         field repeats exactly.  With one NAME, a single run in this
         process whose last line is its fingerprint.

   Exits 1 when a correctness check fails, 2 on bad arguments. *)

module Json = Vs_obs.Json
module Rng = Vs_util.Rng
module W = Workloads

let usage =
  "usage: vsbench.exe --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]\n\
  \                   [--trace-file FILE] [--reps N] [--smoke]\n\
   workloads: kv-steady dp-unbatched churn-check obs-full\n"

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  trace_file : string option;
  reps : int;
  smoke : bool;
}

let parse_args args =
  let int_arg name v =
    match int_of_string_opt v with
    | Some n -> Ok n
    | None -> Error (Printf.sprintf "%s expects an integer, got %S" name v)
  in
  let rec go o = function
    | [] -> Ok o
    | "--workload" :: v :: rest -> go { o with workload = v } rest
    | "--seed" :: v :: rest ->
        Result.bind (int_arg "--seed" v) (fun seed -> go { o with seed } rest)
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0. -> go { o with seconds = s } rest
        | Some _ | None -> Error ("--seconds expects a positive number, got " ^ v))
    | "--trace" :: ("0" | "1" as v) :: rest ->
        go { o with trace = String.equal v "1" } rest
    | "--trace-file" :: v :: rest -> go { o with trace_file = Some v } rest
    | "--reps" :: v :: rest ->
        Result.bind (int_arg "--reps" v) (fun reps ->
            if reps < 1 then Error "--reps expects at least 1"
            else go { o with reps } rest)
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | arg :: _ -> Error ("unknown or incomplete argument " ^ arg)
  in
  go
    {
      workload = "";
      seed = 1;
      seconds = 10.;
      trace = false;
      trace_file = None;
      reps = 1;
      smoke = false;
    }
    args

(* ---------- one run ---------- *)

type run = {
  w : W.t;
  seed : int;
  base : W.pass list;  (* untraced passes, one per round *)
  traced : W.pass list;  (* their traced twins; [] unless tracing *)
  base_tally : W.tally;
  traced_tally : W.tally;
  total_ns : int;
  reset_ns : int;  (* spent in [reset_heap] *)
  spans : Spans.t option;
  problems : string list;
}

(* A traced run does every round twice, so it does half as many. *)
let rounds_for (w : W.t) ~smoke ~seconds ~trace =
  let n = int_of_float (Float.round (seconds /. w.W.round_s)) in
  if smoke then 1 else if trace then max 2 (n / 2) else max 3 n

(* Collect before every pass, so each one starts from the same heap rather
   than paying for whatever garbage the previous pass left. *)
let reset_heap spans =
  let start_ns = Spans.now_ns () in
  Gc.compact ();
  let stop_ns = Spans.now_ns () in
  Option.iter
    (fun s ->
      Spans.add s ~id:(Spans.fresh s) ~parent:0 ~name:"heap-reset" ~start_ns ~stop_ns)
    spans;
  stop_ns - start_ns

let add_pass_spans s ~pass_id ~measure_id ~name (p : W.pass) =
  let m = p.W.marks in
  Spans.add s ~id:pass_id ~parent:0 ~name ~start_ns:m.(0) ~stop_ns:m.(3);
  Spans.add s ~id:(Spans.fresh s) ~parent:pass_id ~name:"setup" ~start_ns:m.(0)
    ~stop_ns:m.(1);
  Spans.add s ~id:measure_id ~parent:pass_id ~name:"measure" ~start_ns:m.(1)
    ~stop_ns:m.(2);
  Spans.add s ~id:(Spans.fresh s) ~parent:pass_id ~name:"check" ~start_ns:m.(2)
    ~stop_ns:m.(3)

let floats_equal a b =
  Array.length a = Array.length b && Array.for_all2 Float.equal a b

let mismatches a b =
  List.filter_map
    (fun ((k, x), (_, y)) ->
      if Float.equal x y then None else Some (Printf.sprintf "%s %g vs %g" k x y))
    (List.combine a b)

(* A traced pass must reproduce its untraced twin: tracing only reads the
   clock. *)
let twin_problems (b : W.pass) (t : W.pass) =
  if
    b.W.ops = t.W.ops && b.W.attempted = t.W.attempted && b.W.failed = t.W.failed
    && floats_equal b.W.latencies t.W.latencies
  then []
  else [ "tracing changed the run: ops or latencies differ from the untraced pass" ]

let sum f passes = List.fold_left (fun acc p -> acc + f p) 0 passes
let setup_ns (p : W.pass) = p.W.marks.(1) - p.W.marks.(0)
let measure_ns (p : W.pass) = p.W.marks.(2) - p.W.marks.(1)
let check_ns (p : W.pass) = p.W.marks.(3) - p.W.marks.(2)
let phases_ns p = setup_ns p + measure_ns p + check_ns p

(* The share of the run's wall time no phase span covers. *)
let residual_share r =
  let covered = sum phases_ns r.base + sum phases_ns r.traced + r.reset_ns in
  float_of_int (r.total_ns - covered) /. float_of_int r.total_ns

let max_residual_share = 0.05

let run_workload (w : W.t) ~seed ~seconds ~smoke ~trace =
  let root = Rng.create (Int64.of_int seed) in
  let spans = if trace then Some (Spans.create ()) else None in
  let base_tally = W.tally () and traced_tally = W.tally () in
  let base = ref [] and traced = ref [] and problems = ref [] in
  let reset_ns = ref 0 in
  let start = Spans.now_ns () in
  for _ = 1 to rounds_for w ~smoke ~seconds ~trace do
    let rng = Rng.split root in
    reset_ns := !reset_ns + reset_heap spans;
    let b = w.W.pass ~smoke (Rng.copy rng) base_tally None in
    base := b :: !base;
    problems := !problems @ b.W.problems;
    match spans with
    | None -> ()
    | Some s ->
        add_pass_spans s ~pass_id:(Spans.fresh s) ~measure_id:(Spans.fresh s)
          ~name:"untraced" b;
        reset_ns := !reset_ns + reset_heap spans;
        let pass_id = Spans.fresh s and measure_id = Spans.fresh s in
        let t =
          w.W.pass ~smoke (Rng.copy rng) traced_tally
            (Some { W.spans = s; measure_id })
        in
        add_pass_spans s ~pass_id ~measure_id ~name:"traced" t;
        traced := t :: !traced;
        problems := !problems @ twin_problems b t
  done;
  let r =
    {
      w;
      seed;
      base = List.rev !base;
      traced = List.rev !traced;
      base_tally;
      traced_tally;
      total_ns = Spans.now_ns () - start;
      reset_ns = !reset_ns;
      spans;
      problems = !problems;
    }
  in
  let trace_problems =
    if not trace then []
    else
      (match mismatches (W.counts base_tally) (W.counts traced_tally) with
      | [] -> []
      | m -> [ "tracing changed the per-layer counts: " ^ String.concat ", " m ])
      @
      if residual_share r <= max_residual_share then []
      else
        [
          Printf.sprintf "phase spans leave %.3f of the wall time uncovered"
            (residual_share r);
        ]
  in
  { r with problems = r.problems @ trace_problems }

(* ---------- metrics ---------- *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric ?(note = "") name unit_ value = { name; value; unit_; note }

let all_latencies passes =
  Stats.sorted (Array.concat (List.map (fun (p : W.pass) -> p.W.latencies) passes))

let end_to_end r =
  let rate (p : W.pass) = float_of_int p.W.ops /. Spans.seconds (measure_ns p) in
  let lat = all_latencies r.base in
  let note = Printf.sprintf "n=%d" (Array.length lat) in
  let words = (Gc.quick_stat ()).Gc.top_heap_words in
  [
    metric "setup_s" "s"
      (Stats.median
         (Array.of_list (List.map (fun p -> Spans.seconds (setup_ns p)) r.base)));
    metric "ops_per_s" "1/s" (Stats.median (Array.of_list (List.map rate r.base)));
    metric ~note "latency_p50_sim_ms" "sim_ms" (Stats.percentile lat 0.5 *. 1e3);
    metric ~note "latency_p99_sim_ms" "sim_ms" (Stats.percentile lat 0.99 *. 1e3);
    metric "peak_heap_mb" "MB"
      (float_of_int (words * (Sys.word_size / 8)) /. 1e6);
  ]

let per_layer r =
  let t = r.traced_tally in
  let passes = r.traced in
  let ops = float_of_int (sum (fun (p : W.pass) -> p.W.ops) passes) in
  let ratio a b = if b > 0. then a /. b else 0. in
  let per_op x = ratio (float_of_int x) ops in
  let wall = float_of_int (sum phases_ns passes) in
  let share ns = ratio (float_of_int ns) wall in
  let derive_ns =
    t.W.metrics_ns + t.W.stall_ns + t.W.critpath_ns + t.W.lineage_ns + t.W.jsonl_ns
  in
  let dispatch_ns = sum measure_ns passes - t.W.submit_ns - t.W.sink_ns - derive_ns in
  let waits = t.W.propose_wait +. t.W.flush_wait +. t.W.stability_wait in
  let n_lat = Array.length (all_latencies passes) in
  [
    metric "sim.events_per_op" "events/op" (per_op t.W.events);
    metric "sim.dispatch_us_per_op" "us" (ratio (float_of_int dispatch_ns /. 1e3) ops);
    metric "sim.ns_per_event" "ns"
      (ratio (float_of_int dispatch_ns) (float_of_int t.W.events));
    metric "sim.dispatch_share" "ratio" (share dispatch_ns);
    metric "apps.submit_share" "ratio" (share t.W.submit_ns);
    metric "apps.history_per_op" "entries/op" (per_op t.W.history);
    metric "apps.rejected" "count" (float_of_int t.W.rejected);
    metric "net.msgs_per_op" "msgs/op" (per_op t.W.sent);
    metric "net.bytes_per_op" "B/op" (per_op t.W.bytes);
    metric "net.delivered_ratio" "ratio"
      (ratio (float_of_int t.W.delivered) (float_of_int t.W.sent));
    metric "net.dropped_per_op" "msgs/op" (per_op t.W.dropped);
    metric "net.duplicated_per_op" "msgs/op" (per_op t.W.duplicated);
    metric "vsync.data_per_op" "msgs/op" (per_op t.W.data_sent);
    metric "vsync.ops_per_batch" "ops/batch"
      (ratio (float_of_int t.W.data_sent) (float_of_int t.W.batches));
    metric "vsync.nacks_per_op" "msgs/op" (per_op t.W.nacks);
    metric "vsync.retransmits_per_op" "msgs/op" (per_op t.W.retransmits);
    metric "vsync.ctl_retries_per_op" "msgs/op" (per_op t.W.ctl_retries);
    metric "vsync.sync_delivered_per_op" "msgs/op" (per_op t.W.sync_delivered);
    metric "vsync.to_dropped" "count" (float_of_int t.W.to_dropped);
    metric "gms.installs_per_op" "installs/op" (per_op t.W.installs);
    metric "gms.proposals_per_install" "ratio"
      (ratio (float_of_int t.W.proposals) (float_of_int t.W.installs));
    metric "gms.propose_wait_share" "ratio" (ratio t.W.propose_wait waits);
    metric "gms.flush_wait_share" "ratio" (ratio t.W.flush_wait waits);
    metric "gms.stability_wait_share" "ratio" (ratio t.W.stability_wait waits);
    metric "fd.suspects_per_op" "suspects/op" (per_op t.W.suspects);
    metric "fd.false_suspect_ratio" "ratio"
      (ratio (float_of_int t.W.false_suspects) (float_of_int t.W.suspects));
    metric "evs.eviews_per_op" "eviews/op" (per_op t.W.eviews);
    metric "check.unstable" "count" (float_of_int t.W.unstable);
    metric "obs.events_per_op" "events/op" (per_op t.W.recorded);
    metric "obs.sink_share" "ratio" (share t.W.sink_ns);
    metric "obs.metrics_share" "ratio" (share t.W.metrics_ns);
    metric "obs.stall_share" "ratio" (share t.W.stall_ns);
    metric "obs.critpath_share" "ratio" (share t.W.critpath_ns);
    metric "obs.lineage_share" "ratio" (share t.W.lineage_ns);
    metric "obs.jsonl_share" "ratio" (share t.W.jsonl_ns);
    metric "obs.jsonl_bytes_per_op" "B/op" (per_op t.W.jsonl_bytes);
    metric "phase.setup_share" "ratio" (share (sum setup_ns passes));
    metric "phase.check_share" "ratio" (share (sum check_ns passes));
    metric "gc.minor_words_per_op" "words/op" (ratio t.W.minor_words ops);
    metric "gc.promoted_words_per_op" "words/op" (ratio t.W.promoted_words ops);
    metric "gc.major_collections" "count" (float_of_int t.W.major_collections);
    metric "latency.samples" "count" (float_of_int n_lat);
    metric "trace.residual_share" "ratio" (residual_share r);
    metric "trace.overhead_ratio" "ratio"
      (ratio
         (float_of_int (sum measure_ns r.base))
         (float_of_int (sum measure_ns passes)));
  ]

let record r metrics =
  let attempted = sum (fun (p : W.pass) -> p.W.attempted) r.base in
  let failed = sum (fun (p : W.pass) -> p.W.failed) r.base in
  Json.Obj
    [
      ("correct", Json.Bool (r.problems = []));
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun m ->
               (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.Str m.unit_) ]))
             metrics) );
    ]

let print_run r metrics =
  Printf.printf "vsbench %s seed=%d rounds=%d trace=%d wall=%.2fs\n" r.w.W.name
    r.seed (List.length r.base)
    (if r.traced = [] then 0 else 1)
    (Spans.seconds r.total_ns);
  List.iter
    (fun m ->
      Printf.printf "  %-30s %16.6g %-12s %s\n" m.name m.value m.unit_ m.note)
    metrics;
  List.iter (fun p -> Printf.eprintf "vsbench %s: FAILED: %s\n" r.w.W.name p) r.problems;
  print_endline (Json.to_string (record r metrics))

let single (opts : opts) (w : W.t) =
  let r =
    run_workload w ~seed:opts.seed ~seconds:opts.seconds ~smoke:false
      ~trace:opts.trace
  in
  (match r.spans with
  | None -> ()
  | Some s ->
      let path =
        match opts.trace_file with
        | Some p -> p
        | None -> Printf.sprintf "vsbench-trace-%s.json" w.W.name
      in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (Spans.to_chrome s));
      Printf.printf "trace written to %s (open in ui.perfetto.dev)\n" path);
  print_run r (if opts.trace then per_layer r else end_to_end r);
  if r.problems = [] then 0 else 1

(* ---------- BENCHMARK.json ---------- *)

let spec_file = "BENCHMARK.json"

let read_spec () =
  if not (Sys.file_exists spec_file) then None
  else
    Result.to_option
      (Json.of_string (In_channel.with_open_bin spec_file In_channel.input_all))

let spec_entries spec key =
  match Option.bind (Json.member key spec) Json.to_list_opt with
  | Some l -> l
  | None -> []

let spec_names spec key =
  List.filter_map
    (fun e -> Option.bind (Json.member "name" e) Json.to_string_opt)
    (spec_entries spec key)

let spec_bound spec name =
  List.find_map
    (fun e ->
      match Option.bind (Json.member "name" e) Json.to_string_opt with
      | Some n when String.equal n name ->
          Option.bind (Json.member "bound" e) Json.to_float_opt
      | Some _ | None -> None)
    (spec_entries spec "end_to_end")

(* The metric names a run prints must be the ones BENCHMARK.json lists. *)
let spec_problems spec r =
  let check key metrics =
    let listed = spec_names spec key in
    let printed = List.map (fun m -> m.name) metrics in
    if List.equal String.equal listed printed then []
    else
      [ Printf.sprintf "metric names differ from the %s list in %s" key spec_file ]
  in
  check "end_to_end" (end_to_end r) @ check "per_layer" (per_layer r)

(* ---------- fresh processes ---------- *)

(* Run one child and return its exit status and standard output. *)
let spawn args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let ic = Unix.in_channel_of_descr out_r in
  let out = In_channel.input_all ic in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (status, out)

let last_json out =
  match
    List.rev (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' out))
  with
  | [] -> None
  | last :: _ -> Result.to_option (Json.of_string last)

type child = {
  c_correct : bool;
  c_attempted : int;
  c_failed : int;
  c_metrics : (string * float * string) list;  (* name, value, unit *)
}

let failed_child = { c_correct = false; c_attempted = 0; c_failed = 0; c_metrics = [] }

(* A child's record, from the last line it printed. *)
let parse_child out =
  Option.map
    (fun j ->
      let field k conv default =
        Option.value ~default (Option.bind (Json.member k j) conv)
      in
      let metric (name, m) =
        match
          ( Option.bind (Json.member "value" m) Json.to_float_opt,
            Option.bind (Json.member "unit" m) Json.to_string_opt )
        with
        | Some v, Some u -> Some (name, v, u)
        | _ -> None
      in
      {
        c_correct = field "correct" Json.to_bool_opt false;
        c_attempted = field "attempted" Json.to_int_opt 0;
        c_failed = field "failed" Json.to_int_opt 0;
        c_metrics =
          (match Json.member "metrics" j with
          | Some (Json.Obj kvs) -> List.filter_map metric kvs
          | Some _ | None -> []);
      })
    (last_json out)

(* ---------- smoke ---------- *)

(* Everything a run of the same seed must reproduce exactly. *)
let fingerprint r =
  let lat = all_latencies r.base in
  [
    ("attempted", float_of_int (sum (fun (p : W.pass) -> p.W.attempted) r.base));
    ("failed", float_of_int (sum (fun (p : W.pass) -> p.W.failed) r.base));
    ("latency_p50", Stats.percentile lat 0.5);
    ("latency_p99", Stats.percentile lat 0.99);
  ]
  @ W.counts r.base_tally
  @ List.map (fun (k, v) -> ("untraced." ^ k, v)) (W.gc_counts r.base_tally)
  @ List.map (fun (k, v) -> ("traced." ^ k, v)) (W.gc_counts r.traced_tally)

(* One smoke-size traced run in this process; its last line carries every
   field a run of the same seed must reproduce. *)
let smoke_run (w : W.t) =
  let r = run_workload w ~seed:1 ~seconds:0. ~smoke:true ~trace:true in
  let problems =
    r.problems @ match read_spec () with Some s -> spec_problems s r | None -> []
  in
  List.iter (fun p -> Printf.eprintf "vsbench %s: FAILED: %s\n" w.W.name p) problems;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (problems = []));
            ("ops", Json.Int (sum (fun (p : W.pass) -> p.W.ops) r.base));
            ( "fingerprint",
              Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) (fingerprint r)) );
          ]));
  if problems = [] then 0 else 1

(* Each workload's smoke run twice, in fresh processes: allocation counts
   repeat only from the same starting heap. *)
let smoke (workloads : W.t list) =
  let failures =
    List.concat_map
      (fun (w : W.t) ->
        let t0 = Spans.now_ns () in
        let run () =
          match spawn [ "--smoke"; "--workload"; w.W.name ] with
          | Unix.WEXITED 0, out -> last_json out
          | _ -> None
        in
        let a = run () in
        let b = run () in
        let field k j = Option.bind j (Json.member k) in
        let problems =
          match (field "fingerprint" a, field "fingerprint" b) with
          | Some (Json.Obj fa), Some (Json.Obj fb) ->
              let differ =
                List.filter_map
                  (fun (k, v) ->
                    match List.assoc_opt k fb with
                    | Some v' when String.equal (Json.to_string v) (Json.to_string v') ->
                        None
                    | Some _ | None -> Some k)
                  fa
              in
              if differ = [] then []
              else [ "two runs of seed 1 differ in " ^ String.concat ", " differ ]
          | _ -> [ "a smoke run failed its checks" ]
        in
        Printf.printf "smoke %-13s %s (%s ops, %.2fs)\n" w.W.name
          (if problems = [] then "ok" else "FAILED")
          (match Option.bind (field "ops" a) Json.to_int_opt with
          | Some n -> string_of_int n
          | None -> "?")
          (Spans.seconds (Spans.now_ns () - t0));
        List.map (fun p -> w.W.name ^ ": " ^ p) problems)
      workloads
  in
  List.iter prerr_endline failures;
  if failures = [] then 0 else 1

let reps (opts : opts) (workloads : W.t list) =
  let spec = read_spec () in
  let ok = ref true in
  List.iter
    (fun (w : W.t) ->
      let children =
        List.init opts.reps (fun i ->
            let args =
              [
                "--workload"; w.W.name;
                "--seed"; string_of_int (opts.seed + i);
                "--seconds"; Printf.sprintf "%g" opts.seconds;
                "--trace"; (if opts.trace then "1" else "0");
              ]
            in
            let status, out = spawn args in
            print_string out;
            match (status, parse_child out) with
            | Unix.WEXITED 0, Some c when c.c_correct -> c
            | _, parsed ->
                ok := false;
                Printf.eprintf "vsbench %s seed %d: run failed\n" w.W.name (opts.seed + i);
                Option.value parsed ~default:failed_child)
      in
      let names =
        match children with c :: _ -> List.map (fun (n, _, u) -> (n, u)) c.c_metrics | [] -> []
      in
      Printf.printf "\n%s: %d run(s), seeds %d..%d\n" w.W.name opts.reps opts.seed
        (opts.seed + opts.reps - 1);
      Printf.printf "  %-30s %14s %14s %14s %8s %7s\n" "metric" "median" "q1" "q3" "spread"
        "bound";
      let rows =
        List.map
          (fun (name, unit_) ->
            let values =
              Array.of_list
                (List.filter_map
                   (fun c ->
                     List.find_map
                       (fun (n, v, _) -> if String.equal n name then Some v else None)
                       c.c_metrics)
                   children)
            in
            let med = Stats.median values in
            let q1, q3 = if Array.length values >= 2 then Stats.quartiles values else (med, med) in
            let spread = if Float.equal med 0. then 0. else (q3 -. q1) /. Float.abs med in
            let bound = Option.bind spec (fun s -> spec_bound s name) in
            let unresolved = match bound with Some b -> spread > b | None -> false in
            Printf.printf "  %-30s %14.6g %14.6g %14.6g %8.4f %7s%s\n" name med q1 q3 spread
              (match bound with Some b -> Printf.sprintf "%g" b | None -> "-")
              (if unresolved then "  UNRESOLVED" else "");
            ( name,
              Json.Obj
                [
                  ("median", Json.Float med);
                  ("q1", Json.Float q1);
                  ("q3", Json.Float q3);
                  ("spread", Json.Float spread);
                  ("unit", Json.Str unit_);
                  ("unresolved", Json.Bool unresolved);
                ] ))
          names
      in
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("workload", Json.Str w.W.name);
                ("reps", Json.Int opts.reps);
                ("seed", Json.Int opts.seed);
                ("correct", Json.Bool (List.for_all (fun c -> c.c_correct) children));
                ("attempted", Json.Int (List.fold_left (fun a c -> a + c.c_attempted) 0 children));
                ("failed", Json.Int (List.fold_left (fun a c -> a + c.c_failed) 0 children));
                ("metrics", Json.Obj rows);
              ])))
    workloads;
  if !ok then 0 else 1

(* ---------- main ---------- *)

let () =
  let args = match Array.to_list Sys.argv with _ :: args -> args | [] -> [] in
  match parse_args args with
  | Error msg ->
      Printf.eprintf "vsbench: %s\n%s" msg usage;
      exit 2
  | Ok opts -> (
      let selected =
        match opts.workload with
        | "" when opts.smoke -> Some W.all
        | "all" -> Some W.all
        | name -> Option.map (fun w -> [ w ]) (W.find name)
      in
      match selected with
      | None ->
          Printf.eprintf "vsbench: unknown or missing --workload %S\n%s" opts.workload usage;
          exit 2
      | Some ws ->
          exit
            (match (opts.smoke, ws) with
            | true, [ w ] -> smoke_run w
            | true, _ -> smoke ws
            | false, [ w ] when opts.reps = 1 -> single opts w
            | false, _ -> reps opts ws))
