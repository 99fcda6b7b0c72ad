(** Parallel-lookup replicated database — the paper's second example group
    object (Section 3).

    The database (keys [0 .. keyspace-1], fully replicated) answers look-up
    queries in parallel: each member scans only the key range assigned to it
    by the {e responsibility table}, the object's shared global state.  The
    single external operation works in {e any} view, so Reduced mode does
    not exist; but every view change invalidates the table and forces
    Settling, during which the coordinator redistributes the key space and
    members adopt the new table ("an inconsistency in this global state
    could result in some portion of the database not being searched at all
    or being searched multiple times").

    For experiment E8 the object can be built with [gate_on_settling:false]:
    members then keep answering with their stale ranges during view changes,
    and the resulting missed / duplicated key scans are what the experiment
    counts. *)

module Proc_id = Vs_net.Proc_id
module Endpoint = Vs_vsync.Endpoint

type payload

type ann

type net = (payload, ann) Evs_core.Evs.net

val make_net : Vs_sim.Sim.t -> Vs_net.Net.config -> net

type scan = {
  scan_member : Proc_id.t;
  scan_issuer : Proc_id.t; (** the query's issuer *)
  scan_query : int;        (** query identifier, per issuer *)
  scan_lo : int;
  scan_hi : int;           (** range scanned: [lo, hi) *)
}

type t

val create :
  Vs_sim.Sim.t ->
  net ->
  me:Proc_id.t ->
  universe:int list ->
  config:Endpoint.config ->
  keyspace:int ->
  ?gate_on_settling:bool ->
  ?on_scan:(scan -> unit) ->
  unit ->
  t
(** [on_scan] lets the harness observe every range scan a member performs —
    the raw material for E8's coverage accounting.  [gate_on_settling]
    defaults to [true] (the correct behaviour). *)

val lookup : t -> needle:int -> (int, [ `Not_serving ]) result
(** External operation, issued at this member: multicast the query; returns
    its query id.  Results arrive asynchronously (see {!result_of}).
    Refused while the issuer itself is settling (when gating is on). *)

val result_of : t -> int -> (int list, [ `Pending ]) result
(** Hits collected so far for a query id; [Ok] once every key range of the
    responding view has been covered. *)

val my_range : t -> (int * int) option
(** This member's currently-assigned [lo, hi) range, if the table is set. *)

val obj : t -> (payload, ann) Group_object.t
(** The database's group-object runtime: its identity, mode, history and
    lifecycle. *)
