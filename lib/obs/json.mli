(** Minimal deterministic JSON: value type, canonical printer, parser.

    The printer is canonical — fixed field order (whatever the caller
    builds), no whitespace, shortest round-trippable float repr — so
    identical event streams serialize byte-identically, and parsing then
    re-printing a canonical document reproduces it exactly.  The parser
    reads [BENCH_*.json] baselines for [Bench_diff] and the committed
    samples the structural tests check. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val float_repr : float -> string

val to_string : t -> string

val of_string : string -> (t, string) result

(** {2 Accessors} *)

val member : string -> t -> t option

val to_float_opt : t -> float option
(** Accepts [Int] too. *)

val to_int_opt : t -> int option

val to_string_opt : t -> string option

val to_bool_opt : t -> bool option

val to_list_opt : t -> t list option
