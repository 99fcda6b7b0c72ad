(* The run-level explanation report: re-runs nothing, just folds an already
   recorded stream through Lineage and pairs every structured verdict with
   its causal slice.  One builder serves the CLI `explain` subcommand, the
   failure paths of campaign/check/sweep, corpus attachments, and the
   corpus determinism test — so they cannot drift apart. *)

module Recorder = Vs_obs.Recorder
module Event = Vs_obs.Event
module Explain = Vs_obs.Explain
module Lineage = Vs_obs.Lineage
module Json = Vs_obs.Json
module Driver = Vs_harness.Driver

type t = {
  header : string list;  (* spec description + headline counters *)
  explanations : Explain.explanation list;
  lineage : Lineage.t;
}

let clean t = t.explanations = []

let conservation_totals (lineage : Lineage.t) =
  List.fold_left
    (fun (copies, received, in_flight) (l : Lineage.lifecycle) ->
      (copies + l.l_copies, received + l.l_received, in_flight + l.l_in_flight))
    (0, 0, 0) lineage.lifecycles

let build ~(spec : Campaign.spec) ~(outcome : Campaign.outcome) ~entries =
  let lineage = Lineage.of_entries entries in
  let header =
    [
      Campaign.describe spec;
      Printf.sprintf
        "deliveries=%d installs=%d views=%d eview-changes=%d events=%d \
         stable=%b"
        outcome.Campaign.deliveries outcome.installs outcome.distinct_views
        outcome.eview_changes outcome.events outcome.stable;
    ]
    @
    match outcome.Campaign.quarantine with
    | None -> []
    | Some q ->
        [
          Printf.sprintf
            "stabilization: bound=%d fresh-views=%d recovered=%s \
             quarantined=%d"
            q.Driver.q_bound q.Driver.q_views
            (match q.Driver.q_cut with
            | Some c -> Printf.sprintf "t=%.3f" c
            | None -> "never")
            q.Driver.q_quarantined;
        ]
  in
  let explanations =
    List.map (Explain.explain ~lineage ~entries) outcome.Campaign.verdicts
  in
  { header; explanations; lineage }

let to_text t =
  let b = Buffer.create 1024 in
  List.iter
    (fun line ->
      Buffer.add_string b line;
      Buffer.add_char b '\n')
    t.header;
  (match t.explanations with
  | [] ->
      let copies, received, in_flight = conservation_totals t.lineage in
      Buffer.add_string b
        (Printf.sprintf
           "clean run: no property violations\n\
            lineage: %d messages tracked, %d copies on wire, %d received, %d \
            in flight at end\n\
            view graph: %d views, %d transitions, %d splits, %d merges\n"
           (List.length t.lineage.Lineage.lifecycles)
           copies received in_flight
           (List.length t.lineage.Lineage.graph.Lineage.vnodes)
           (List.length t.lineage.Lineage.graph.Lineage.vedges)
           (List.length (Lineage.splits t.lineage.Lineage.graph))
           (List.length (Lineage.merges t.lineage.Lineage.graph)))
  | es ->
      Buffer.add_string b
        (Printf.sprintf "%d violation(s):\n" (List.length es));
      List.iteri
        (fun i e ->
          Buffer.add_string b (Printf.sprintf "[%d] " (i + 1));
          Buffer.add_string b (Explain.to_text e))
        es);
  Buffer.contents b

let to_json t =
  let copies, received, in_flight = conservation_totals t.lineage in
  Json.Obj
    [
      ("header", Json.Arr (List.map (fun l -> Json.Str l) t.header));
      ("clean", Json.Bool (clean t));
      ( "lineage",
        Json.Obj
          [
            ( "messages",
              Json.Int (List.length t.lineage.Lineage.lifecycles) );
            ("copies", Json.Int copies);
            ("received", Json.Int received);
            ("in_flight", Json.Int in_flight);
            ( "views",
              Json.Int (List.length t.lineage.Lineage.graph.Lineage.vnodes) );
            ( "transitions",
              Json.Int (List.length t.lineage.Lineage.graph.Lineage.vedges) );
          ] );
      ( "explanations",
        Json.Arr (List.map Explain.to_json t.explanations) );
    ]

let graph t = t.lineage.Lineage.graph
