(** LRU pool of {!Ser_cli.Handlers.prepared} values, keyed with
    {!Cache.key} over the netlist, the library and the analysis config
    subset. An op on a pooled value skips the sizing its baseline
    memoizes, and an analyze or rate also the memoized ASERTA analysis;
    a handful of values covers a daemon's working set. *)

type t

val create : ?max_entries:int -> unit -> t
(** [max_entries] defaults to 4 (values hold full per-gate state; they
    are memory, not disk). *)

val warm :
  t -> key:string -> Ser_cli.Handlers.prepared -> Ser_cli.Handlers.prepared * bool
(** Find-or-add: the pooled value under [key] and [true], else the
    given value, inserted (evicting LRU beyond the bound), and
    [false]. *)

val stats_json : t -> Ser_util.Json.t
