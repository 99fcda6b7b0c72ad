(** Minimal deterministic JSON: value type, canonical printer, parser.

    The printer is canonical — fixed field order (whatever the caller
    builds), no whitespace, the {!float_repr} rule for finite floats and
    [null] for the non-finite ones JSON cannot spell — so
    identical event streams serialize byte-identically, and parsing then
    re-printing a canonical document reproduces it exactly.  The parser
    reads vsbench's BENCHMARK.json and run records, the committed samples
    the structural tests check, and JSONL lines back for {!Explain}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val float_repr : float -> string
(** The printf rule, which is the definition: ["%.1f"] for an integral
    value of magnitude below 1e15; otherwise 12 significant digits
    ([%.12g]) when they parse back to the same float, else 17 ([%.17g]).
    Round-trippable, not shortest: [1.0000000000001] prints as
    ["1.0000000000000999"], and an integral [2. ** 53.] as the bare digits
    ["9007199254740992"], which parse back as an [Int].  For a finite
    non-integral value with 1e-4 <= |x| < 1e15 an exact integer path prints
    the rule's bytes without calling printf.  Non-finite values keep
    printf's spelling ([inf], [nan]); the JSON printer writes [null]. *)

val add_int : Buffer.t -> int -> unit
(** Appends [string_of_int n] without allocating it. *)

val escape_string : Buffer.t -> string -> unit
(** Appends the quoted, escaped JSON string. *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** A number that does not fit a finite double (["5e460"]) is an
    [Error]. *)

(** {2 Accessors} *)

val member : string -> t -> t option

val to_float_opt : t -> float option
(** Accepts [Int] too. *)

val to_int_opt : t -> int option

val to_string_opt : t -> string option

val to_bool_opt : t -> bool option

val to_list_opt : t -> t list option
