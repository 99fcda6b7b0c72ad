(* The vslint rule table.  Each rule makes one class of determinism or
   protocol-hygiene hazard a build error: the verification story (seeded
   campaigns, the shrink corpus, replayable repros) assumes a seed expands
   into exactly one run, and these rules are what enforce that assumption
   statically.  Rules are purely syntactic — they run on the untyped AST —
   so a site that is provably safe is silenced with a suppression comment
   that must carry a justification (see {!Lint}). *)

type severity = Error | Warning

let severity_to_string = function Error -> "error" | Warning -> "warn"

type t = {
  id : string;
  severity : severity;
  title : string;  (* one-line summary, shown in reports *)
  hint : string;  (* fix hint, printed inline under each finding *)
  explain : string;  (* long-form rationale for --explain *)
}

(* Suppression comments are written [(* vslint: allow <ID> — <why> *)]; the
   examples below build the marker by concatenation so this file does not
   itself register stray suppressions with the scanner. *)
let allow_example id why = "(* vslint: " ^ "allow " ^ id ^ " — " ^ why ^ " *)"

let d1 =
  {
    id = "D1";
    severity = Error;
    title = "wall-clock or ambient randomness outside lib/util/rng.ml and lib/sim/";
    hint =
      "thread the simulation's seeded Rng.t (Sim.fork_rng) and Sim.now instead \
       of Random.*, Sys.time, or Unix.gettimeofday";
    explain =
      "Seed-replay (vscli explain --replay, the shrink corpus, the campaign \
       explorer) requires that every source of randomness and every clock \
       read is derived from the campaign seed and the simulated clock.  A \
       single Random.float or Sys.time call makes two identically-seeded \
       runs diverge, which silently voids every repro artifact in \
       test/corpus/.  The only modules allowed to touch ambient entropy or \
       real time are lib/util/rng.ml (the seeded splitmix64 generator) and \
       lib/sim/ (the discrete-event clock).";
  }

let d2 =
  {
    id = "D2";
    severity = Warning;
    title = "hash-table iter/fold/to_seq enumerates in unspecified hash order";
    hint =
      "sort the result by a total order (Proc_id.compare, Int.compare, ...) \
       before it feeds a decision — e.g. Vs_util.Hashtblx.sorted_bindings, \
       or a typed table's own sorted_bindings — or annotate with "
      ^ allow_example "D2" "commutative fold"
      ^ " when the accumulation is order-insensitive";
    explain =
      "Hash-table enumeration order depends on the hash function and the \
       insertion history, not on any order the protocol reasons about.  \
       The rule covers every module whose name ends in \"tbl\": Stdlib's \
       Hashtbl, typed tables such as Proc_id.Tbl and Int_tbl, and any alias \
       of one.  When the enumerated elements feed an ordered decision (a \
       delivery, a wire message, a coordinator choice, an oracle verdict), \
       the run is hostage to hash-bucket layout: refactoring a record or \
       changing a table's initial size reorders deliveries and breaks \
       byte-identical seed replay.  Either sort the fold's result by an \
       explicit total order before anyone sees it \
       (Vs_util.Hashtblx.sorted_bindings / sorted_keys do this in one step, \
       and a typed table's sorted_bindings / sorted_keys sort by its key's \
       compare), or — when the fold is genuinely commutative (max, sum, or) \
       — silence the site with a justified suppression comment.";
  }

let d3 =
  {
    id = "D3";
    severity = Error;
    title = "partial operation (List.hd, List.tl, Option.get, bare Hashtbl.find)";
    hint =
      "match explicitly and raise a descriptive invariant-violation error, or \
       use the _opt variant (Hashtbl.find_opt, ...) and handle None";
    explain =
      "List.hd, List.tl, Option.get and bare Hashtbl.find raise blank \
       Failure/Not_found/Invalid_argument exceptions that carry no protocol \
       context: a Not_found escaping from deep inside a flush is close to \
       undebuggable, and several past VS bugs hid behind exactly such \
       implicit emptiness assumptions.  Write the match out: the [None]/[[]] \
       branch either has a real meaning (handle it) or is an invariant \
       violation (raise invalid_arg with a message naming the invariant).";
  }

let d4 =
  {
    id = "D4";
    severity = Error;
    title = "Obj.magic or physical equality (==/!=) on structural data";
    hint =
      "use structural (=) / a typed compare for values, and delete Obj.magic \
       outright; annotate with " ^ allow_example "D4" "identity check on a mutable handle"
      ^ " for an intentional identity test";
    explain =
      "Obj.magic defeats the type system entirely, and physical equality on \
       structural data (ids, views, messages) is true or false depending on \
       sharing decisions the compiler is free to change between releases and \
       optimization levels — another way for two identical runs to diverge.  \
       Physical equality is legitimate only as an identity test on mutable \
       handles, which is rare enough to deserve a justified suppression.";
  }

let d5 =
  {
    id = "D5";
    severity = Warning;
    title = "polymorphic compare on protocol data";
    hint =
      "use the type's own comparator (Proc_id.compare, View.Id.compare, \
       Int.compare, Float.compare, String.compare) instead of bare compare";
    explain =
      "Stdlib's polymorphic compare orders values by runtime representation: \
       on Proc_id.t-bearing aggregates it silently bypasses Proc_id.compare, \
       so the order it induces is a coincidence of field layout — it changes \
       when a field is added or reordered, it traverses mutable state, and \
       it raises on functional values.  Every sort or maximum that feeds a \
       protocol decision must name the comparator of the element type.  \
       (Sites where [compare] resolves to a comparator defined earlier in \
       the same file — e.g. a [let compare] shadowing Stdlib's — are not \
       flagged.)";
  }

let c1 =
  {
    id = "C1";
    severity = Error;
    title =
      "protocol module transitively reaches ambient time, randomness, or \
       Unix I/O";
    hint =
      "thread the capability in (Sim.now, a seeded Rng.t, or the injected \
       I/O interface) instead of calling — directly or through any helper — \
       Unix.*, Sys.time, or Random.*; the report names the full call chain \
       to the offending leaf";
    explain =
      "D1 is syntactic and per-site: it flags Unix.gettimeofday where it is \
       written, so a helper in lib/util that wraps the wall clock launders \
       the effect into every caller unflagged.  C1 closes that hole with a \
       whole-program analysis: pass 1 builds a module-qualified call graph \
       over the tree, pass 2 seeds each function with its intrinsic effects \
       and propagates them to a fixpoint, pass 3 requires every function \
       defined in the protocol layers (lib/vsync, lib/core, lib/gms, \
       lib/fd, lib/net, lib/store, lib/apps) to be transitively clean of \
       Ambient_time, Ambient_rand, and Unix_io.  Effects reached through \
       the sanctioned capabilities (lib/sim/ and lib/util/rng.ml) are \
       masked — that is the seam the future real-OS backend plugs into: \
       protocol code that certifies clean here runs byte-identical under \
       lib/sim and wall-clock honest under a real backend, with no code \
       change.  Each violation is reported as the full call chain from the \
       protocol function to the effect leaf, not just the leaf site.";
  }

let a1 =
  {
    id = "A1";
    severity = Error;
    title = "allocating construct in a function annotated alloc-free";
    hint =
      "hoist the allocation out of the annotated function (or drop the \
       annotation); the annotation is written (* vslint" ^ ": alloc-free *) \
       on the line above the definition";
    explain =
      "The send fast path must not allocate when observability is off; \
       test_obs's \"zero-alloc runtime guard\" asserts this at runtime with \
       word-exact Gc counters (bench obs prints the same counts at every \
       recording level), but a runtime assertion only guards the scenarios \
       it happens to run.  A1 turns the guarantee into a build-time proof: \
       a function annotated alloc-free may not contain closure captures, \
       tuple/record/variant/array construction, string concatenation, \
       known-allocating stdlib calls, partial applications of known \
       functions, or obvious float boxing — and may not call another \
       function in this tree whose body contains such a construct \
       (reported with the call chain to the allocating site).  Calls that \
       the analysis cannot resolve (first-class functions, external \
       primitives) are not flagged: the proof is conservative in what it \
       accepts under the annotation, not in what it rejects.";
  }

let s2 =
  {
    id = "S2";
    severity = Warning;
    title = "stale suppression: the allowed rule no longer fires here";
    hint =
      "delete the allow comment — the site it guarded has drifted and the \
       rule no longer reports anything on this line or the line below";
    explain =
      "A justified allow is evidence that a *specific* flagged site was \
       reviewed and deemed safe.  When the guarded code drifts — the fold \
       is rewritten, the wall-clock read moves — the comment keeps claiming \
       a review that no longer corresponds to any finding, and future \
       readers (and future real findings on nearby lines) inherit \
       unearned trust.  S2 reports every justified allow whose rule \
       produces no finding on the suppression's line or the line directly \
       below, which keeps the tree's allows exactly as honest as the day \
       each was written.";
  }

let b1 =
  {
    id = "B1";
    severity = Error;
    title = "zero-alloc contract entry without an alloc-free annotation";
    hint =
      "annotate the named function with (* vslint" ^ ": alloc-free *) or \
       remove it from Net.zero_alloc_contract; the contract list and the \
       annotated set must name the same functions";
    explain =
      "Two guards protect the zero-allocation send path: the runtime Gc \
       counts (test_obs's \"zero-alloc runtime guard\", and bench obs, which \
       prints Net.zero_alloc_contract next to its word counts) and the \
       static A1 annotations.  If they named different functions they could \
       silently diverge — the runtime check measuring one set while the \
       analyzer proves another.  B1 pins them together: every \
       \"path:function\" entry of zero_alloc_contract must resolve to a \
       function in the analyzed tree that carries the alloc-free \
       annotation.";
  }

let s1 =
  {
    id = "S1";
    severity = Error;
    title = "suppression comment without a justification";
    hint =
      "write " ^ allow_example "<RULE>" "non-empty reason why this site is safe"
      ^ " — a bare allow does not suppress anything";
    explain =
      "A suppression is a claim that a flagged site is safe; the \
       justification string is the reviewable evidence for that claim.  An \
       unjustified allow is rejected: it does not silence the underlying \
       finding and is itself reported, so silencing a rule always costs one \
       written sentence.";
  }

let all = [ d1; d2; d3; d4; d5; c1; a1; s1; s2; b1 ]

let find id = List.find_opt (fun r -> String.equal r.id id) all
