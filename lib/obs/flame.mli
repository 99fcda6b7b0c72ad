(** Flamegraph rendering of critical-path decompositions.

    {!folded} renders a {!Critpath.t} in the classic folded-stack format
    ([view;segment-kind;owner <microseconds>] lines) that [flamegraph.pl] /
    [inferno-flamegraph] consume directly.  Values are integer microseconds
    summed per stack; lines are sorted, so the output is byte-deterministic
    on identically-seeded runs (a committed golden sample pins it). *)

val folded : Critpath.t -> string
(** Newline-terminated folded stacks; empty string when no view was ever
    installed. *)
