module Driver = Vs_harness.Driver

type failure = {
  f_seed : int;
  f_spec : Campaign.spec;
  f_outcome : Campaign.outcome;
  f_shrunk : Campaign.spec;
  f_shrink_stats : Shrink.stats;
}

type report = {
  start_seed : int;
  seeds : int;
  campaigns : int;
  total_events : int;
  total_deliveries : int;
  total_installs : int;
  failures : failure list;
}

let explore ?(start_seed = 1) ?(transient = false) ?(shrink = true) ?progress
    ~seeds ~nodes ~quick () =
  let campaigns = ref 0 in
  let total_events = ref 0 in
  let total_deliveries = ref 0 in
  let total_installs = ref 0 in
  let failures = ref [] in
  for seed = start_seed to start_seed + seeds - 1 do
    List.iter
      (fun protocol ->
        let spec = Campaign.generate ~protocol ~transient ~seed ~nodes ~quick () in
        let outcome = Campaign.run spec in
        incr campaigns;
        total_events := !total_events + outcome.Campaign.events;
        total_deliveries := !total_deliveries + outcome.Campaign.deliveries;
        total_installs := !total_installs + outcome.Campaign.installs;
        (match progress with Some f -> f ~seed spec outcome | None -> ());
        if outcome.Campaign.violations <> [] then begin
          let shrunk, stats =
            if shrink then
              Shrink.shrink ~failing:Campaign.fails spec
            else (spec, { Shrink.attempts = 0; accepted = 0 })
          in
          failures :=
            {
              f_seed = seed;
              f_spec = spec;
              f_outcome = outcome;
              f_shrunk = shrunk;
              f_shrink_stats = stats;
            }
            :: !failures
        end)
      [ Driver.Vsync; Driver.Evs ]
  done;
  {
    start_seed;
    seeds;
    campaigns = !campaigns;
    total_events = !total_events;
    total_deliveries = !total_deliveries;
    total_installs = !total_installs;
    failures = List.rev !failures;
  }
