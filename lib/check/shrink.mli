(** Delta-debugging shrinker for failing campaign specs.

    Given a spec on which [failing] holds, greedily applies reductions that
    preserve the failure, largest first:

    - drop contiguous chunks of the fault script (halves, quarters, ...,
      single actions);
    - remove the highest node (rewriting the script to not mention it);
    - merge partition components (fewer, coarser components);
    - switch off fault dimensions (loss, duplication, extra jitter, app
      traffic);
    - compress the schedule in time and tighten the horizon.

    Every candidate is evaluated by re-running it deterministically, so the
    result is a spec that still fails and from which no single reduction can
    be removed — a local minimum, the classic ddmin guarantee. *)

type stats = {
  attempts : int;  (** candidate specs evaluated *)
  accepted : int;  (** reductions that preserved the failure *)
}

val shrink :
  failing:(Campaign.spec -> bool) -> Campaign.spec -> Campaign.spec * stats
(** [shrink ~failing spec] requires [failing spec = true] (raises
    [Invalid_argument] otherwise) and returns a minimized spec on which
    [failing] still holds, after at most 400 candidate evaluations. *)
