(** Replayable repro artifacts: campaign specs as s-expressions on disk.

    A shrunk failing campaign is persisted under [test/corpus/] as a small
    s-expression; the corpus replay suite loads every artifact and re-runs
    it forever after, so a once-found schedule can never silently regress.
    The format is plain text, diffable and hand-editable:

    {v
    ((seed 42) (protocol evs) (nodes 5)
     (loss 0.05) (dup 0) (delay-min 0.001) (delay-max 0.01)
     (traffic-gap 0.03) (traffic-until 7.5) (horizon 12)
     (script ((1.25 (crash 2)) (1.9 (partition (0 1) (3 4)))
              (2.5 (heal)) (3.01 (recover 2)))))
    v}

    Transient campaigns additionally carry a [(transient true)] field
    (omitted when false, so pre-transient artifacts round-trip
    byte-identically) and [(corrupt <node> <kind> <args>)] script actions
    with kinds [seq-skew k], [stability-smear m a], [view-skew k],
    [deps-truncate m k].

    Floats are printed with round-trip precision, so
    [of_string (to_string spec) = Ok spec] exactly.  [of_string] refuses a
    spec that cannot replay: a non-finite float, a negative script time, or
    delay bounds {!Vs_net.Net.create} rejects. *)

val to_string : Campaign.spec -> string

val of_string : string -> (Campaign.spec, string) result

val save : dir:string -> Campaign.spec -> string
(** Write the artifact as [dir/<protocol>-seed<seed>-n<nodes>.sexp]
    (creating [dir] if needed) and return its path. *)

val load : string -> (Campaign.spec, string) result
(** Read one artifact back. *)

val load_dir : string -> (string * (Campaign.spec, string) result) list
(** Every [*.sexp] under the directory in sorted order, parsed; [] if the
    directory does not exist. *)
