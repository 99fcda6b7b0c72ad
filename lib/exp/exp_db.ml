(* Experiment E8 — the parallel-lookup database under churn (Section 3
   example 2).

   Queries are issued continuously while the group suffers crashes and
   recoveries.  Every range scan any member performs is recorded; per query
   we then count which keys were scanned zero, one, or multiple times.

   With S-mode gating (the correct protocol) members stop answering with a
   stale responsibility table: queries may be deferred, but coverage is
   exact.  With gating disabled — the ablation — members keep scanning
   their stale ranges, and keys get missed or double-searched, exactly the
   inconsistency the paper warns about. *)

module Sim = Vs_sim.Sim
module Net = Vs_net.Net
module Proc_id = Vs_net.Proc_id
module Endpoint = Vs_vsync.Endpoint
module Go = Vs_apps.Group_object
module Pdb = Vs_apps.Parallel_db
module Faults = Vs_harness.Faults
module Table = Vs_stats.Table

type outcome = {
  queries : int;
  refused : int;
  exact : int;          (* every key scanned exactly once *)
  with_misses : int;
  with_dups : int;
  missed_keys : int;    (* total over queries *)
  dup_keys : int;
}

let run_campaign ~seed ~gate ~duration ~keyspace =
  let sim = Sim.create ~seed () in
  let net = Pdb.make_net sim Net.default_config in
  let universe = [ 0; 1; 2; 3 ] in
  (* (issuer, qid) -> per-key scan counts *)
  let scans : (Proc_id.t * int, int array) Hashtbl.t = Hashtbl.create 64 in
  let issued = ref [] in
  let refused = ref 0 in
  let on_scan (s : Pdb.scan) =
    let key = (s.Pdb.scan_issuer, s.Pdb.scan_query) in
    let counts =
      match Hashtbl.find_opt scans key with
      | Some c -> c
      | None ->
          let c = Array.make keyspace 0 in
          Hashtbl.add scans key c;
          c
    in
    for k = s.Pdb.scan_lo to min (keyspace - 1) (s.Pdb.scan_hi - 1) do
      counts.(k) <- counts.(k) + 1
    done
  in
  let fleet =
    App_fleet.create sim net ~nodes:universe
      ~spawn:(fun me ->
        Pdb.create sim net ~me ~universe
          ~config:Endpoint.default_config ~keyspace ~gate_on_settling:gate
          ~on_scan ())
      ~obj:Pdb.obj
  in
  let rng = Sim.fork_rng sim in
  App_fleet.run_script fleet
    (Faults.random_script rng ~nodes:universe ~start:0.8 ~duration ~mean_gap:0.6 ());
  App_fleet.every fleet ~start:0.6 ~until:duration ~gap:0.04 (fun _ -> function
    | [] -> ()
    | apps -> (
        let db = Vs_util.Rng.pick rng apps in
        match Pdb.lookup db ~needle:(Vs_util.Rng.int rng 256) with
        | Ok qid -> issued := (Go.me (Pdb.obj db), qid) :: !issued
        | Error `Not_serving -> incr refused));
  ignore (Sim.run ~until:(duration +. 2.5) sim);
  let outcome =
    List.fold_left
      (fun acc key ->
        match Hashtbl.find_opt scans key with
        | None ->
            (* Never scanned at all: counts as a fully-missed query. *)
            {
              acc with
              queries = acc.queries + 1;
              with_misses = acc.with_misses + 1;
              missed_keys = acc.missed_keys + keyspace;
            }
        | Some counts ->
            let missed = ref 0 and dup = ref 0 in
            Array.iter
              (fun c ->
                if c = 0 then incr missed else if c > 1 then incr dup)
              counts;
            {
              acc with
              queries = acc.queries + 1;
              exact = (acc.exact + if !missed = 0 && !dup = 0 then 1 else 0);
              with_misses = (acc.with_misses + if !missed > 0 then 1 else 0);
              with_dups = (acc.with_dups + if !dup > 0 then 1 else 0);
              missed_keys = acc.missed_keys + !missed;
              dup_keys = acc.dup_keys + !dup;
            })
      {
        queries = 0;
        refused = !refused;
        exact = 0;
        with_misses = 0;
        with_dups = 0;
        missed_keys = 0;
        dup_keys = 0;
      }
      (List.rev !issued)
  in
  outcome

let run ?(quick = false) () =
  let duration = if quick then 4.0 else 15.0 in
  let keyspace = 300 in
  let table =
    Table.create
      ~title:
        "E8 / example 2 — parallel look-up coverage under churn: S-mode \
         gating vs stale responsibility tables"
      ~columns:
        [
          "mode";
          "queries";
          "refused";
          "exact coverage";
          "queries w/ misses";
          "queries w/ dups";
          "missed keys";
          "duplicate keys";
        ]
  in
  List.iteri
    (fun i (label, gate) ->
      let o =
        run_campaign ~seed:(Int64.of_int (800 + i)) ~gate ~duration ~keyspace
      in
      let pct n =
        if o.queries = 0 then "-"
        else Table.fpct (float_of_int n /. float_of_int o.queries)
      in
      Table.add_row table
        [
          label;
          Table.fint o.queries;
          Table.fint o.refused;
          pct o.exact;
          pct o.with_misses;
          pct o.with_dups;
          Table.fint o.missed_keys;
          Table.fint o.dup_keys;
        ])
    [ ("gated (correct)", true); ("ungated (stale tables)", false) ];
  table

let tables ?quick () = [ run ?quick () ]
