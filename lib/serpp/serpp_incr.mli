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
    score each candidate on it in place ({!score}); a pool slot other
    than the caller's scores on its own {!fork}, and forks may be
    mutated on worker domains. *)

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

val update_silently : t -> (int * Ser_device.Cell_params.t) list -> unit
(** {!update} that records no span, flushes no counter and leaves
    {!stats} alone ({!Ser_incr.Cone.Make.update_silently}): keeps a
    per-slot copy in step with the handle it was forked from. *)

val score : t -> (int * Ser_device.Cell_params.t) list -> (t -> 'a) -> 'a
(** [score t changes f]: [f] of the handle after [update t changes],
    computed in place under the undo log and rolled back afterwards,
    bit for bit ({!Ser_incr.Cone.Make.score}). Equal to [f] of a
    {!fork} after the same update. *)

val set_cell : t -> int -> Ser_device.Cell_params.t -> unit
(** [update t [(g, cell)]]. *)

val sync : t -> Ser_sta.Assignment.t -> unit
(** Apply the difference to an assignment as one {!update}. *)

val total : t -> float
(** Bit-equal to {!Serpp.run}'s total on the same assignment. *)

val estimate : t -> int -> float
val profile : t -> int -> float array

val core : t -> Ser_sta.Incr_sta.t
(** The handle's incremental STA core (read-only): cells, loads, timing
    and the per-gate electrical terms. *)

val brackets : t -> int -> int array * float array
(** A gate's Eq-1 brackets ({!Aserta.Analysis.ws_brackets} of its
    delay). *)

val metrics : t -> Ser_sta.Incr_sta.metrics
(** The serpp total, critical delay, energy (as [Timing.total_energy]
    with its defaults) and area (as [Assignment.total_area]). *)

val stats : t -> Ser_incr.Cone.stats
