(** A bounded recency table over string keys: the one eviction policy
    behind the daemon's result {!Cache}, its pool of prepared circuits
    and its idempotency replay window.

    Every [add] and every successful [find] stamps the entry with the
    next generation of a private clock; an [add] that takes the table
    beyond its bound evicts the entry with the smallest stamp, the
    least recently used one. *)

type 'v t

val create : int -> 'v t
(** [create bound] holds at most [max 1 bound] entries. *)

val find : 'v t -> string -> 'v option
(** The value under a key; a hit refreshes its recency. *)

val add : 'v t -> string -> 'v -> unit
(** Insert, or replace the value and refresh the recency of a present
    key; then evict the least recent entry if the table is over its
    bound. *)

val length : 'v t -> int

val evictions : 'v t -> int
(** Entries evicted since [create]. *)

val to_list : 'v t -> (string * 'v) list
(** Every entry, least recently used first. *)
