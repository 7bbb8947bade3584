(** LRU pool of warm {!Ser_incr.Incr} handles.

    Building an analysis from scratch pays for Monte-Carlo logical
    masking and a full electrical pass; a warm handle has both in hand,
    so a repeat query over the same (netlist, library, analysis config)
    only pays a snapshot. Entries are keyed with {!Cache.key} over the
    config subset that determines the electrical state, and evicted LRU
    — a handful of handles covers a daemon's working set. *)

type entry = {
  e_assignment : Ser_sta.Assignment.t;  (** the size-for-speed baseline *)
  e_incr : Ser_incr.Incr.t;  (** its analysis, snapshotted per query *)
}

type t

val create : ?max_entries:int -> unit -> t
(** [max_entries] defaults to 4 (handles hold full per-gate state;
    they are memory, not disk). *)

val warm : t -> key:string -> build:(unit -> entry) -> entry * bool
(** Find-or-build: the boolean is [true] when the entry was already
    warm. A built entry is inserted (evicting LRU beyond the bound). *)

val stats_json : t -> Ser_util.Json.t
