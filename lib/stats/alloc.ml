let words_per f =
  for _ = 1 to 20_000 do
    f ()
  done;
  Gc.minor ();
  let reps = 64 in
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int reps
