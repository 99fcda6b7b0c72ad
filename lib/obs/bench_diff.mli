(** Regression diffing for the machine-readable [BENCH_*.json] artifacts.

    Flattens two documents to dotted key paths (arrays of records keyed by
    their ["id"]/["name"] field, so reordering produces no spurious diffs)
    and judges every leaf against a per-key-class threshold.  The CLI
    [vscli bench diff OLD NEW] exits with {!exit_code} — non-zero on any
    regression — which is the CI contract. *)

type cls =
  | Exact  (** no tolerance: bool false-ing or any change regresses *)
  | Lower of float  (** lower is better, relative tolerance *)
  | Higher of float  (** higher is better, relative tolerance *)
  | Info  (** reported, never gates *)

type verdict = Ok | Improved | Regressed | Changed | Added | Removed

type row = {
  key : string;
  r_class : cls;
  r_old : Json.t option;
  r_new : Json.t option;
  r_verdict : verdict;
  r_note : string;  (** relative delta or a short reason *)
}

val default_threshold : float
(** [0.20] — the relative tolerance for measured keys; wall-clock keys get
    2.5 times this. *)

val load : string -> (Json.t, string) result
(** Read and parse a [BENCH_*.json] file; an unreadable file is an
    [Error] too. *)

val diff : ?threshold:float -> old_doc:Json.t -> new_doc:Json.t -> unit -> row list
(** Full keywise comparison, sorted by key.  Key-class rules:
    [zero_alloc*]/[gate_*] exact; [words_per_call]/[findings]
    zero-tolerance lower-better; [wall_*] wide-tolerance lower-better;
    [alloc_bytes]/[overhead_ratio] lower-better; [ops_per_wall_s]/[speedup]
    higher-better; all else informational. *)

val deterministic_regressions : row list -> row list
(** Regressions on [Exact] and zero-tolerance keys only — the flake-free
    subset the bench quick profile gates on. *)

val exit_code : row list -> int
(** [1] when any row regressed, else [0]. *)

val to_table : ?all:bool -> row list -> Vs_stats.Table.t
(** Changed keys only by default; [~all:true] includes unchanged rows. *)

val summary : row list -> string
