(** Incremental serpp re-estimation, the bit-identical counterpart of
    {!Serpp.run}: the {!Ser_incr.Cone} driver with serpp's kernels. Rows
    are the propagation profiles ({!Serpp.profile_row}), a profile reads
    its sensitizing successors ([c_succs]), the per-gate kernel is
    {!Serpp.gate_estimate}, and a wholesale rebuild adopts
    {!Serpp.run_context}. Updates flush into [serpp.incr_updates],
    [serpp.cells_changed], [serpp.sta_recomputed], [serpp.sta_cutoff],
    [serpp.rows_recomputed], [serpp.rows_cutoff],
    [serpp.estimates_recomputed], [serpp.full_rebuilds] and the
    [serpp.cone_gates] histogram, and record no trace span.

    The optimizer's tiered menus keep one handle on the incumbent and
    score each candidate on a {!fork}; forks may be mutated on worker
    domains. *)

type t

val of_run :
  Ser_cell.Library.t ->
  Ser_sta.Assignment.t ->
  Serpp.t ->
  t
(** Adopt a {!Serpp.run} of [asg] (arrays are copied). *)

val fork : t -> t
(** O(nodes) copy-on-write clone with zeroed stats. *)

val update : t -> (int * Ser_device.Cell_params.t) list -> unit
(** Apply a batch of gate -> variant changes
    ({!Ser_incr.Cone.Make.update}). *)

val set_cell : t -> int -> Ser_device.Cell_params.t -> unit
(** [update t [(g, cell)]]. *)

val sync : t -> Ser_sta.Assignment.t -> unit
(** Apply the difference to an assignment as one {!update}. *)

val total : t -> float
(** Bit-equal to {!Serpp.run}'s total on the same assignment. *)

val estimate : t -> int -> float
val profile : t -> int -> float array

val metrics : t -> Ser_sta.Incr_sta.metrics
(** The serpp total, critical delay, energy (as [Timing.total_energy]
    with its defaults) and area (as [Assignment.total_area]). *)

val stats : t -> Ser_incr.Cone.stats
