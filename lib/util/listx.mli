(** List helpers used across the protocol stack.

    Views and subviews are represented as sorted, duplicate-free lists of
    process identifiers; the sorted-set operations here keep that invariant
    explicit. *)

val sorted_set : cmp:('a -> 'a -> int) -> 'a list -> 'a list
(** Sort and remove duplicates. *)

val union : cmp:('a -> 'a -> int) -> 'a list -> 'a list -> 'a list
(** Union of two sorted sets. *)

val inter : cmp:('a -> 'a -> int) -> 'a list -> 'a list -> 'a list
(** Intersection of two sorted sets. *)

val diff : cmp:('a -> 'a -> int) -> 'a list -> 'a list -> 'a list
(** [diff a b]: elements of sorted set [a] not in sorted set [b]. *)

val subset : cmp:('a -> 'a -> int) -> 'a list -> 'a list -> bool
(** [subset a b] iff sorted set [a] is included in sorted set [b]. *)

val equal_set : cmp:('a -> 'a -> int) -> 'a list -> 'a list -> bool

val mem : cmp:('a -> 'a -> int) -> 'a -> 'a list -> bool

val group_by : key:('a -> 'k) -> cmp_key:('k -> 'k -> int) -> 'a list -> ('k * 'a list) list
(** Group elements by key; groups are sorted by key, elements keep their
    original relative order.  Elements whose keys [cmp_key] calls equal share
    one group, keyed by its first element's key. *)

val init : int -> (int -> 'a) -> 'a list

val take : int -> 'a list -> 'a list

val drop : int -> 'a list -> 'a list
