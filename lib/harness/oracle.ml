module Proc_id = Vs_net.Proc_id
module View = Vs_gms.View
module E_view = Evs_core.E_view
module Classify = Evs_core.Classify
module Listx = Vs_util.Listx
module Ptbl = Proc_id.Tbl

type msg_id = Vs_obs.Event.msg = { origin : Proc_id.t; mseq : int }

let msg_id_to_string = Vs_obs.Event.msg_to_string

let compare_msg_id = Vs_obs.Event.compare_msg

module Msg_tbl = Vs_obs.Event.Msg_tbl

(* Structured verdicts: the property that broke plus the protocol ids the
   verdict names.  [detail] is the one-line string [check_all] reports. *)
type violation = Vs_obs.Explain.violation = {
  property : Vs_obs.Explain.property;
  msg : msg_id option;
  procs : Proc_id.t list;
  vids : View.Id.t list;
  detail : string;
}

let details vs = List.map (fun v -> v.detail) vs

type eview_record = {
  er_proc : Proc_id.t;
  er_time : float;
  er_eview : E_view.t;
  er_cause : string;
}

type t = {
  sends : [ `Fifo | `Total ] Msg_tbl.t;
  deliveries : (View.Id.t * msg_id * float) list ref Ptbl.t;
  installs : (View.t * View.Id.t * float) list ref Ptbl.t;
  mutable n_deliveries : int;
  mutable n_installs : int;
  mutable corruptions : (Proc_id.t * string * float) list;  (* newest first *)
  mutable eviews : eview_record list;  (* newest first *)
}

let create () =
  {
    sends = Msg_tbl.create 256;
    deliveries = Ptbl.create 64;
    installs = Ptbl.create 64;
    n_deliveries = 0;
    n_installs = 0;
    corruptions = [];
    eviews = [];
  }

let bucket tbl key =
  match Ptbl.find_opt tbl key with
  | Some r -> r
  | None ->
      let r = ref [] in
      Ptbl.add tbl key r;
      r

let record_send t ?(order = `Fifo) msg_id = Msg_tbl.replace t.sends msg_id order

let record_delivery t ~proc ~vid msg_id ~time =
  let b = bucket t.deliveries proc in
  b := (vid, msg_id, time) :: !b;
  t.n_deliveries <- t.n_deliveries + 1

let record_install t ~proc ~view ~prior ~time =
  let b = bucket t.installs proc in
  b := (view, prior, time) :: !b;
  t.n_installs <- t.n_installs + 1

let record_corruption t ~proc ~field ~time =
  t.corruptions <- (proc, field, time) :: t.corruptions

let corruptions t = List.rev t.corruptions

let record_eview t ~proc ~eview ~cause ~time =
  t.eviews <-
    { er_proc = proc; er_time = time; er_eview = eview; er_cause = cause }
    :: t.eviews

let eview_records t = List.rev t.eviews

let eview_changes t =
  List.length (List.filter (fun r -> r.er_eview.E_view.eseq > 0) t.eviews)

let procs t =
  let all =
    Ptbl.sorted_keys t.deliveries @ Ptbl.sorted_keys t.installs
  in
  Proc_id.sort all

let deliveries_of t ~proc =
  match Ptbl.find_opt t.deliveries proc with
  | Some r -> List.rev_map (fun (vid, m, _) -> (vid, m)) !r
  | None -> []

let installs_of t ~proc =
  match Ptbl.find_opt t.installs proc with
  | Some r -> List.rev_map (fun (v, prior, _) -> (v, prior)) !r
  | None -> []

let total_deliveries t = t.n_deliveries

let total_installs t = t.n_installs

let install_counts t =
  Ptbl.sorted_bindings t.installs
  |> List.map (fun (p, r) -> (p, List.length !r))

let distinct_views t =
  Ptbl.sorted_bindings t.installs
  |> List.concat_map (fun (_, r) -> List.map (fun (v, _, _) -> v.View.id) !r)
  |> Listx.sorted_set ~cmp:View.Id.compare
  |> List.length

let delivered_in_view t ~proc ~vid =
  deliveries_of t ~proc
  |> List.filter_map (fun (v, m) -> if View.Id.equal v vid then Some m else None)
  |> Listx.sorted_set ~cmp:compare_msg_id

(* Property 2.1.  Group processes by (prior view, next view) transitions;
   all members of a group must have identical delivery sets in the prior
   view. *)
let agreement_violations t =
  let transitions =
    List.concat_map
      (fun p ->
        List.map (fun (v, prior) -> ((prior, v.View.id), p)) (installs_of t ~proc:p))
      (procs t)
  in
  let groups =
    Listx.group_by ~key:fst
      ~cmp_key:(fun (a1, a2) (b1, b2) ->
        match View.Id.compare a1 b1 with 0 -> View.Id.compare a2 b2 | c -> c)
      transitions
  in
  List.concat_map
    (fun ((prior, next), members) ->
      match List.map snd members with
      | [] | [ _ ] -> []
      | first :: rest ->
          let reference = delivered_in_view t ~proc:first ~vid:prior in
          List.concat_map
            (fun p ->
              let mine = delivered_in_view t ~proc:p ~vid:prior in
              if Listx.equal_set ~cmp:compare_msg_id mine reference then []
              else
                let missing =
                  Listx.diff ~cmp:compare_msg_id reference mine
                  @ Listx.diff ~cmp:compare_msg_id mine reference
                in
                [
                  {
                    property = Vs_obs.Explain.Agreement;
                    msg =
                      (match missing with m :: _ -> Some m | [] -> None);
                    procs = [ first; p ];
                    vids = [ prior; next ];
                    detail =
                      Printf.sprintf
                        "agreement: %s and %s survived %s -> %s with \
                         different delivery sets (%d vs %d messages)"
                        (Proc_id.to_string first) (Proc_id.to_string p)
                        (View.Id.to_string prior) (View.Id.to_string next)
                        (List.length reference) (List.length mine);
                  };
                ])
            rest)
    groups

(* Property 2.2: each message delivered in at most one view, globally. *)
let uniqueness_violations t =
  let table = Msg_tbl.create 256 in
  List.iter
    (fun p ->
      List.iter
        (fun (vid, m) ->
          let vids =
            match Msg_tbl.find_opt table m with Some v -> v | None -> []
          in
          if not (List.exists (View.Id.equal vid) vids) then
            Msg_tbl.replace table m (vid :: vids))
        (deliveries_of t ~proc:p))
    (procs t);
  Msg_tbl.sorted_bindings table
  |> List.filter_map (fun (m, vids) ->
         if List.length vids > 1 then
           let deliverers =
             List.filter
               (fun p ->
                 List.exists
                   (fun (_, m') -> compare_msg_id m m' = 0)
                   (deliveries_of t ~proc:p))
               (procs t)
           in
           Some
             {
               property = Vs_obs.Explain.Uniqueness;
               msg = Some m;
               procs = deliverers;
               vids;
               detail =
                 Printf.sprintf
                   "uniqueness: %s delivered in %d distinct views: %s"
                   (msg_id_to_string m) (List.length vids)
                   (String.concat "," (List.map View.Id.to_string vids));
             }
         else None)

(* Property 2.3: at-most-once per process, only actually-sent messages. *)
let integrity_violations t =
  List.concat_map
    (fun p ->
      let seen = Msg_tbl.create 64 in
      List.concat_map
        (fun (vid, m) ->
          let mk detail =
            {
              property = Vs_obs.Explain.Integrity;
              msg = Some m;
              procs = [ p ];
              vids = [ vid ];
              detail;
            }
          in
          let dup =
            if Msg_tbl.mem seen m then
              [
                mk
                  (Printf.sprintf "integrity: %s delivered %s more than once"
                     (Proc_id.to_string p) (msg_id_to_string m));
              ]
            else []
          in
          Msg_tbl.replace seen m ();
          let phantom =
            if Msg_tbl.mem t.sends m then []
            else
              [
                mk
                  (Printf.sprintf "integrity: %s delivered phantom message %s"
                     (Proc_id.to_string p) (msg_id_to_string m));
              ]
          in
          dup @ phantom)
        (deliveries_of t ~proc:p))
    (procs t)

(* Per-sender order of FIFO-class messages: indices from one sender must
   reach each process in strictly increasing order (gaps allowed —
   inversions never).  Totally-ordered messages are sequenced through the
   coordinator's stream and are exempt. *)
let fifo_violations t =
  let is_fifo m =
    match Msg_tbl.find_opt t.sends m with
    | Some `Fifo | None -> true
    | Some `Total -> false
  in
  List.concat_map
    (fun p ->
      let last = Ptbl.create 16 in
      List.concat_map
        (fun (vid, m) ->
          if not (is_fifo m) then []
          else begin
            let prev =
              Option.value ~default:(-1) (Ptbl.find_opt last m.origin)
            in
            Ptbl.replace last m.origin m.mseq;
            if m.mseq <= prev then
              [
                {
                  property = Vs_obs.Explain.Fifo;
                  msg = Some m;
                  procs = [ p ];
                  vids = [ vid ];
                  detail =
                    Printf.sprintf "fifo: %s delivered %s after index %d"
                      (Proc_id.to_string p) (msg_id_to_string m) prev;
                };
              ]
            else []
          end)
        (deliveries_of t ~proc:p))
    (procs t)

(* Totally-ordered messages delivered within one view must reach every
   receiver in a single consistent relative order: for any two processes,
   the common subsequences agree. *)
let total_order_violations t =
  let is_total m =
    match Msg_tbl.find_opt t.sends m with Some `Total -> true | _ -> false
  in
  let sequences =
    List.map
      (fun p ->
        ( p,
          List.filter_map
            (fun (vid, m) -> if is_total m then Some (vid, m) else None)
            (deliveries_of t ~proc:p) ))
      (procs t)
  in
  let vids =
    List.concat_map (fun (_, seq) -> List.map fst seq) sequences
    |> Listx.sorted_set ~cmp:View.Id.compare
  in
  List.concat_map
    (fun vid ->
      let per_proc =
        List.filter_map
          (fun (p, seq) ->
            let mine =
              List.filter_map
                (fun (v, m) -> if View.Id.equal v vid then Some m else None)
                seq
            in
            if mine = [] then None else Some (p, mine))
          sequences
      in
      let rec pairs = function
        | [] -> []
        | (p, sp) :: rest ->
            List.concat_map
              (fun (q, sq) ->
                (* positions of common messages must be order-consistent:
                   each of [sp]'s messages that [q] also delivered, at its
                   first position in [sq] *)
                let posq = Msg_tbl.create 64 in
                List.iteri
                  (fun i m -> if not (Msg_tbl.mem posq m) then Msg_tbl.add posq m i)
                  sq;
                let projected_q = List.filter_map (Msg_tbl.find_opt posq) sp in
                let rec increasing = function
                  | a :: b :: rest -> a < b && increasing (b :: rest)
                  | _ -> true
                in
                if increasing projected_q then []
                else
                  [
                    {
                      property = Vs_obs.Explain.Total_order;
                      msg = List.find_opt (Msg_tbl.mem posq) sp;
                      procs = [ p; q ];
                      vids = [ vid ];
                      detail =
                        Printf.sprintf
                          "total-order: %s and %s deliver totally-ordered \
                           messages of %s in different orders"
                          (Proc_id.to_string p) (Proc_id.to_string q)
                          (View.Id.to_string vid);
                    };
                  ])
              rest
            @ pairs rest
      in
      pairs per_proc)
    vids

let all_violations t =
  agreement_violations t @ uniqueness_violations t @ integrity_violations t
  @ fifo_violations t @ total_order_violations t

let check_all t = details (all_violations t)

(* ---------- Section 6: e-view changes and structure ---------- *)

let records_since t since =
  List.filter (fun r -> r.er_time >= since) (eview_records t)

(* Property 6.1: within one view, every process records the same sequence
   of e-view changes — match records by (view id, eseq) and require equal
   structures and causes. *)
let eview_order_violations ?(since = neg_infinity) t =
  let key r = (r.er_eview.E_view.view.View.id, r.er_eview.E_view.eseq) in
  let groups =
    Listx.group_by ~key
      ~cmp_key:(fun (v1, s1) (v2, s2) ->
        match View.Id.compare v1 v2 with 0 -> Int.compare s1 s2 | c -> c)
      (records_since t since)
  in
  List.concat_map
    (fun ((vid, eseq), group) ->
      match group with
      | [] | [ _ ] -> []
      | first :: rest ->
          let fingerprint r = E_view.to_string r.er_eview in
          let reference = fingerprint first in
          List.concat_map
            (fun r ->
              let disagree what a b =
                {
                  property = Vs_obs.Explain.Evs_total_order;
                  msg = None;
                  procs = [ first.er_proc; r.er_proc ];
                  vids = [ vid ];
                  detail =
                    Printf.sprintf
                      "total-order: %s and %s disagree on %s (%s, %d): %s vs %s"
                      (Proc_id.to_string first.er_proc)
                      (Proc_id.to_string r.er_proc)
                      what (View.Id.to_string vid) eseq a b;
                }
              in
              (if String.equal r.er_cause first.er_cause then []
               else
                 [ disagree "the cause of e-view" first.er_cause r.er_cause ])
              @
              if String.equal (fingerprint r) reference then []
              else [ disagree "e-view" reference (fingerprint r) ])
            rest)
    groups

let same_subview ev p q =
  match (E_view.subview_of p ev, E_view.subview_of q ev) with
  | Some a, Some b -> E_view.Subview_id.equal a.E_view.sv_id b.E_view.sv_id
  | _ -> false

let same_svset ev p q =
  let svset_id_of x =
    match E_view.subview_of x ev with
    | Some sv -> Option.map (fun ss -> ss.E_view.ss_id) (E_view.svset_of_subview sv.E_view.sv_id ev)
    | None -> None
  in
  match (svset_id_of p, svset_id_of q) with
  | Some a, Some b -> E_view.Svset_id.equal a b
  | _ -> false

(* Property 6.3 at each process: compare its last e-view of the old view
   with the first e-view of the new one.  Both directions apply to pairs
   that travelled with the observer (both installed the new view straight
   from the observer's old view): such pairs keep their subview/sv-set
   relation and are never silently joined by the view change.  Pairs with a
   member that detoured through views the observer did not share are
   exempt in both directions — their subview may legitimately have shrunk
   away from a laggard, or been grown by an application merge the observer
   could not see.  A verdict names the observer and the pair, and the old
   and new views. *)
let structure_violations ?(since = neg_infinity) t =
  (* did [proc] install [new_vid] straight from [old_vid]? *)
  let came_from proc ~new_vid ~old_vid =
    installs_of t ~proc
    |> List.find_map (fun (v, prior) ->
           if View.Id.equal v.View.id new_vid then Some prior else None)
    |> Option.fold ~none:false ~some:(View.Id.equal old_vid)
  in
  (* [proc]'s last e-view of the old view against its first of the new one,
     in pair order. *)
  let transition proc old_ev new_ev =
    let old_vid = old_ev.E_view.view.View.id in
    let new_vid = new_ev.E_view.view.View.id in
    let old_s = View.Id.to_string old_vid and new_s = View.Id.to_string new_vid in
    let survivors =
      Listx.inter ~cmp:Proc_id.compare (E_view.members old_ev)
        (E_view.members new_ev)
    in
    let pair p q =
      let report cond what =
        if cond then
          [
            {
              property = Vs_obs.Explain.Evs_structure;
              msg = None;
              procs = Proc_id.sort [ proc; p; q ];
              vids = [ old_vid; new_vid ];
              detail =
                Printf.sprintf "structure@%s: %s,%s %s"
                  (Proc_id.to_string proc) (Proc_id.to_string p)
                  (Proc_id.to_string q) what;
            };
          ]
        else []
      in
      let before = same_subview old_ev p q and after = same_subview new_ev p q in
      report (before && not after)
        (Printf.sprintf "shared a subview in %s but not in %s" old_s new_s)
      @ report ((not before) && after)
          (Printf.sprintf
             "were joined into one subview by a view change (%s -> %s)" old_s
             new_s)
      @ report
          (same_svset old_ev p q && not (same_svset new_ev p q))
          (Printf.sprintf "shared an sv-set in %s but not in %s" old_s new_s)
    in
    List.concat_map
      (fun p ->
        List.concat_map
          (fun q ->
            if
              Proc_id.compare p q < 0
              && came_from p ~new_vid ~old_vid
              && came_from q ~new_vid ~old_vid
            then pair p q
            else [])
          survivors)
      survivors
  in
  Listx.group_by ~key:(fun r -> r.er_proc) ~cmp_key:Proc_id.compare
    (records_since t since)
  |> List.concat_map (fun (proc, records) ->
         (* records are in order: [prev] is the last of its view *)
         let rec walk = function
           | prev :: (next :: _ as rest)
             when not
                    (View.Id.equal prev.er_eview.E_view.view.View.id
                       next.er_eview.E_view.view.View.id) ->
               transition proc prev.er_eview next.er_eview @ walk rest
           | _ :: rest -> walk rest
           | [] -> []
         in
         (* newest first, as the checker has always reported them *)
         List.rev (walk records))

(* The structural invariants of every e-view recorded at or after [since]:
   E_view.validate (subviews partition the membership, sv-sets partition
   the subviews) and well-formedness of the classification verdict a
   majority-quorum application of [n] nodes would derive from it. *)
let eview_invariant_violations t ~since ~n =
  let quorum ms = 2 * List.length ms > n in
  List.concat_map
    (fun r ->
      let where =
        Printf.sprintf "%s at t=%.3f" (Proc_id.to_string r.er_proc) r.er_time
      in
      let ev = r.er_eview in
      let mk detail =
        {
          property = Vs_obs.Explain.Evs_invariant;
          msg = None;
          procs = [ r.er_proc ];
          vids = [ ev.E_view.view.View.id ];
          detail;
        }
      in
      let structural =
        match E_view.validate ev with
        | Ok () -> []
        | Error e ->
            [ mk (Printf.sprintf "e-view invariant (%s): %s in %s" where e
                    (E_view.to_string ev)) ]
      in
      let verdict = Classify.enriched ~eview:ev ~would_serve_all:quorum () in
      let classify =
        if Classify.well_formed verdict then []
        else
          [ mk (Printf.sprintf "classify not well-formed (%s): %s on %s" where
                  (Classify.problem_to_string verdict)
                  (E_view.to_string ev)) ]
      in
      structural @ classify)
    (records_since t since)

(* ---------- stabilization (bounded recovery from transient faults) ----

   Practically-self-stabilizing reading of the Section 2 properties: after
   the *last* recorded state corruption, the run must return to
   oracle-clean behavior within [bound] freshly installed views.
   Violations attributable to the recovery window are quarantined;
   violations in views installed after the window are real failures,
   relabeled [Stabilization] and annotated with the corrupted fields. *)

type stabilization = {
  st_bound : int;
  st_first_fault : float;
  st_last_fault : float;
  st_views : int;  (* distinct views first installed after the last fault *)
  st_cut : float option;
      (* first-install time of the bound-th fresh view; None when fewer
         than [bound] fresh views were ever installed *)
  st_quarantined : violation list;
  st_residual : violation list;
}

let corrupted_fields_label corruptions =
  List.map
    (fun (proc, field, _) ->
      Printf.sprintf "%s@%s" field (Proc_id.to_string proc))
    corruptions
  |> Listx.sorted_set ~cmp:String.compare
  |> String.concat ","

let stabilization t ?(bound = 2) violations =
  match List.rev t.corruptions with
  | [] -> None
  | corruptions ->
      let fault_times = List.map (fun (_, _, time) -> time) corruptions in
      let first_fault = List.fold_left Float.min infinity fault_times in
      let last_fault = List.fold_left Float.max neg_infinity fault_times in
      (* First-install time of every distinct view in the run, by view id. *)
      let first_install =
        Ptbl.sorted_bindings t.installs
        |> List.concat_map (fun (_, r) ->
               List.map (fun ((v : View.t), _, time) -> (v.View.id, time)) !r)
        |> Listx.group_by ~key:fst ~cmp_key:View.Id.compare
        |> List.map (fun (vid, installs) ->
               (vid, List.fold_left (fun acc (_, time) -> Float.min acc time)
                       infinity installs))
      in
      (* Views born strictly after the last fault, in install order. *)
      let fresh =
        first_install
        |> List.filter (fun (_, time) -> time > last_fault)
        |> List.sort (fun (v1, t1) (v2, t2) ->
               match Float.compare t1 t2 with
               | 0 -> View.Id.compare v1 v2
               | c -> c)
      in
      let cut =
        match Listx.drop (bound - 1) fresh with
        | (_, time) :: _ -> Some time
        | [] -> None
      in
      let recovered = Listx.drop bound fresh |> List.map fst in
      let in_recovered vid = List.exists (View.Id.equal vid) recovered in
      (* When a violation completed: the latest evidence the oracle holds
         for it — any delivery of the offending message, any delivery by a
         violating process inside a named view, or failing those the first
         install of a named view.  Latest, not earliest: a message first
         delivered cleanly before the fault can still be the victim of a
         post-corruption inversion or duplicate, and only violations whose
         evidence closed before the first fault may be exonerated as
         pre-existing. *)
      let violation_time v =
        let in_procs p =
          v.procs = [] || List.exists (Proc_id.equal p) v.procs
        in
        let t0 =
          List.fold_left
            (fun acc p ->
              match Ptbl.find_opt t.deliveries p with
              | None -> acc
              | Some r ->
                  List.fold_left
                    (fun acc (vid, m', time) ->
                      let relevant =
                        (match v.msg with
                        | Some m -> compare_msg_id m m' = 0
                        | None -> false)
                        || (in_procs p
                           && List.exists (View.Id.equal vid) v.vids)
                      in
                      if relevant then Float.max acc time else acc)
                    acc !r)
            neg_infinity (procs t)
        in
        let t0 =
          if t0 > neg_infinity then t0
          else
            List.fold_left
              (fun acc vid ->
                match List.find_opt (fun (v, _) -> View.Id.equal v vid) first_install with
                | Some (_, time) -> Float.max acc time
                | None -> acc)
              neg_infinity v.vids
        in
        if t0 > neg_infinity then t0 else 0.
      in
      let fields = corrupted_fields_label corruptions in
      let quarantined = ref [] in
      let residual = ref [] in
      List.iter
        (fun v ->
          if violation_time v < first_fault then
            (* Predates the first corruption: not the transient's fault. *)
            residual := v :: !residual
          else if v.vids <> [] && List.for_all in_recovered v.vids then
            residual :=
              {
                v with
                property = Vs_obs.Explain.Stabilization;
                detail =
                  Printf.sprintf
                    "%s — persists after the stabilization bound (%d views \
                     after last transient fault at %.3f; corrupted: %s)"
                    v.detail bound last_fault fields;
              }
              :: !residual
          else quarantined := v :: !quarantined)
        violations;
      let residual =
        if cut = None && !quarantined <> [] then
          (* Never re-converged: the quarantine window never closed, and
             violations accumulated inside it. *)
          {
            property = Vs_obs.Explain.Stabilization;
            msg = None;
            procs =
              Proc_id.sort (List.map (fun (p, _, _) -> p) corruptions);
            vids = [];
            detail =
              Printf.sprintf
                "stabilization: never reconverged — only %d of %d required \
                 views installed after last transient fault at %.3f, with \
                 %d violation(s) outstanding (corrupted: %s)"
                (List.length fresh) bound last_fault
                (List.length !quarantined) fields;
          }
          :: List.rev !residual
        else List.rev !residual
      in
      Some
        {
          st_bound = bound;
          st_first_fault = first_fault;
          st_last_fault = last_fault;
          st_views = List.length fresh;
          st_cut = cut;
          st_quarantined = List.rev !quarantined;
          st_residual = residual;
        }
