(** Seed-sweeping schedule explorer.

    Sweeps a contiguous range of integer seeds; each seed deterministically
    expands ({!Campaign.generate}) into one campaign per protocol — random
    churn x link parameters ({!Vs_net.Net.config}) x app traffic — which is
    run and checked.  Failing campaigns are shrunk to minimal repros ready
    to be persisted with {!Repro.save} and replayed forever after. *)

type failure = {
  f_seed : int;
  f_spec : Campaign.spec;       (** the original failing campaign *)
  f_outcome : Campaign.outcome; (** its violations *)
  f_shrunk : Campaign.spec;     (** minimized repro (= [f_spec] if shrinking
                                    was disabled) *)
  f_shrink_stats : Shrink.stats;
}

type report = {
  start_seed : int;
  seeds : int;
  campaigns : int;
  total_events : int;
  total_deliveries : int;
  total_installs : int;
  failures : failure list;      (** in discovery order *)
}

val explore :
  ?start_seed:int ->
  ?transient:bool ->
  ?shrink:bool ->
  ?progress:(seed:int -> Campaign.spec -> Campaign.outcome -> unit) ->
  seeds:int ->
  nodes:int ->
  quick:bool ->
  unit ->
  report
(** [explore ~seeds:n] sweeps seeds [start_seed .. start_seed + n - 1]
    (default start 1) over both protocols, shrinking failures (default
    on).  [transient] (default false) adds the transient-corruption
    axis to every generated campaign.  [progress] is invoked after every
    campaign. *)
