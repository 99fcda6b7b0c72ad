(** Word-exact allocation meter: the runtime half of the zero-allocation
    contract, shared by the bench's obs section and the test suite. *)

val words_per : (unit -> unit) -> float
(** Minor-heap words allocated per call of [f].  A long warm-up grows any
    structure [f] feeds (the simulator's event heap) past its last
    doubling, [Gc.minor] empties the nursery, and the measured batch is
    small enough to fit in it — so [Gc.minor_words] (precise in native
    code) counts exactly the per-call allocations, with no GC-phase noise.
    ([Gc.allocated_bytes] deltas are not stable here: the heap-array
    growths land minor-or-major depending on nursery phase.) *)
