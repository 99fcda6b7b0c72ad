(* vslint — determinism & protocol-hygiene linter for the VS stack.
   All logic lives in Vs_lint.Driver. *)

let () = exit (Vs_lint.Driver.main Sys.argv)
