(** Message lineage, per-process view timelines and the view graph, folded
    from one recorded event stream.

    The fold is purely structural: it never consults protocol state, only
    the typed events, and every output list is sorted by the typed
    comparators of {!Event}, so identical streams produce identical
    lineages (the property the corpus's .explain.txt artifacts pin down).
    Each message's sends, duplicates, receipts and drops are counted in
    place as the stream passes; no hop is stored, and no send is matched to
    a receive here (that is {!Causal}'s job).

    Requires a [Full]-level stream for message lifecycles; view timelines
    and the view graph also work on [Protocol]-level streams. *)

(** {2 Per-message lifecycles} *)

type delivery = {
  d_proc : Event.proc;
  d_vid : Event.vid option;
      (** the view the receiver had installed at arrival time, when known *)
}

type lifecycle = {
  l_msg : Event.msg;
  l_copies : int;  (** envelopes put on the wire: sends + dups *)
  l_received : int;
  l_dups : int;
  l_predrops : (string * int) list;
      (** attempts killed before the wire ({!Event.send_time_drop}),
          reason -> count, sorted by reason *)
  l_inflight_drops : (string * int) list;
      (** copies killed in flight ("dst-dead", "partition-inflight") *)
  l_in_flight : int;
      (** [copies - received - inflight drops]; in a conserved stream this
          is >= 0 and counts envelopes pending at shutdown *)
  l_deliveries : delivery list;  (** network arrivals, chronological *)
}

(** {2 Per-process timelines} *)

type view_span = { vs_vid : Event.vid; vs_from : float  (** install time *) }

type timeline = {
  tl_proc : Event.proc;
  tl_views : view_span list;  (** chronological *)
  tl_crashed_at : float option;
}

(** {2 The view graph} *)

type vnode = {
  n_vid : Event.vid;
  n_members : Event.proc list;
  n_installers : Event.proc list;
  n_first_install : float;
  n_transfer : bool;  (** some member needed state transfer (Section 4) *)
  n_creation : string;  (** ["none"], ["rebirth"], ["in-progress"] *)
  n_merging : bool;
  n_clusters : int;  (** max S_R cluster count reported at settle *)
  n_eviews : int;  (** EVS e-view changes within the view (Section 6) *)
  n_max_subviews : int;
}

type vedge = {
  e_from : Event.vid;
  e_to : Event.vid;
  e_procs : Event.proc list;  (** survivors that made the transition *)
}

type graph = { vnodes : vnode list; vedges : vedge list }

val splits : graph -> (Event.vid * Event.vid list) list
(** Views whose survivors installed more than one distinct successor. *)

val merges : graph -> (Event.vid * Event.vid list) list
(** Views reached from more than one distinct predecessor. *)

(** {2 The fold} *)

type t = {
  lifecycles : lifecycle list;  (** sorted by message identity *)
  timelines : timeline list;  (** sorted by process *)
  graph : graph;
}

val of_entries : Recorder.entry list -> t

val lifecycle : t -> Event.msg -> lifecycle option

val timeline : t -> Event.proc -> timeline option

(** {2 Rendering} *)

val lifecycle_summary : lifecycle -> string
(** One deterministic line: copies/receipts/drops/in-flight and arrival
    views. *)

val to_mermaid : graph -> string
(** Mermaid [graph TD] document; node labels carry membership, settle
    classification and subview structure, edge labels the survivors. *)

val to_dot : graph -> string
(** Graphviz digraph with the same labels. *)
