(* Deterministic views of Hashtbl contents, and typed tables.

   Hashtbl enumeration order is a function of hash-bucket layout, not of
   anything the protocol reasons about, so vslint (rule D2) rejects raw
   iter/fold sites.  These helpers are the sanctioned escape hatch: they
   enumerate once and immediately impose the caller's total order, so the
   result is independent of insertion history. *)

let sorted_bindings ~cmp tbl =
  (* vslint: allow D2 — the fold's result is sorted by [cmp] before anyone sees it *)
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (ka, _) (kb, _) -> cmp ka kb)

let sorted_keys ~cmp tbl =
  (* vslint: allow D2 — the fold's result is sorted by [cmp] before anyone sees it *)
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort cmp

(* A table over a key with its own equality and hash, so lookups on the
   per-message path run no polymorphic [caml_hash] or [compare_val].  Its
   sorted views enumerate in [K.compare] order, so a new hash function
   changes no output. *)
module type KEY = sig
  include Hashtbl.HashedType

  val compare : t -> t -> int
end

module type S = sig
  include Hashtbl.S

  val sorted_bindings : 'a t -> (key * 'a) list
  (** Every binding, in the key's [compare] order. *)

  val sorted_keys : 'a t -> key list
end

module Make (K : KEY) : S with type key = K.t = struct
  module Tbl = Hashtbl.Make (K)
  include Tbl

  let sorted_bindings tbl =
    (* vslint: allow D2 — the fold's result is sorted by [K.compare] before anyone sees it *)
    Tbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (ka, _) (kb, _) -> K.compare ka kb)

  let sorted_keys tbl = List.map fst (sorted_bindings tbl)
end

(* Sequence numbers, request ids and node numbers: the identity hash. *)
module Int_tbl = Make (struct
  type t = int

  let equal = Int.equal

  let hash x = x land max_int

  let compare = Int.compare
end)
