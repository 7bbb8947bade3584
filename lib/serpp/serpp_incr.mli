(** Incremental serpp re-estimation: the cone-limited, bit-identical
    counterpart of {!Serpp.run} that {!Ser_incr.Incr} is for ASERTA.

    A handle holds one assignment's serpp state: the shared incremental
    STA core ({!Ser_sta.Incr_sta}), each gate's Eq-1 brackets, the
    propagation profiles and the per-gate estimates. Changing cells
    ({!update} / {!set_cell} / {!sync}) re-runs only what the change can
    reach:

    - loads and forward STA over the fanout cone ({!Ser_sta.Incr_sta});
    - profile rows over the fan-in cone of the gates whose delay
      changed, in reverse-topological order;
    - per-gate estimates only where the cell, the node load or the
      profile changed.

    Every stage stops at a bit-identical result (early cutoff), and a
    change set above {!Ser_sta.Incr_sta.wants_rebuild}'s threshold is
    re-run from scratch through {!Serpp.run_context}. Either way the
    state is bit-identical to {!Serpp.run} on the same assignment.

    The optimizer's tiered menus keep one handle on the incumbent and
    score each candidate on a {!fork}. Forks are independent and may be
    mutated on worker domains: they share only immutable state (the
    context, rows replaced wholesale on recompute, compiled models). *)

type t

type stats = {
  mutable updates : int;  (** updates that changed anything *)
  mutable sta_recomputed : int;  (** gates whose timing was re-evaluated *)
  mutable rows_recomputed : int;  (** profile rows re-evaluated *)
  mutable estimates_recomputed : int;  (** per-gate estimates re-evaluated *)
  mutable full_rebuilds : int;  (** updates re-run from scratch *)
}

val of_run :
  Ser_cell.Library.t ->
  Ser_sta.Assignment.t ->
  Serpp.t ->
  t
(** Adopt a {!Serpp.run} of [asg] (arrays are copied). *)

val fork : t -> t
(** O(nodes) copy-on-write clone. *)

val update : t -> (int * Ser_device.Cell_params.t) list -> unit
(** Apply a batch of gate -> variant changes and propagate once over the
    union of the affected cones. No-op entries are skipped. Raises
    [Invalid_argument] on a bad id, a primary input or a mismatched
    cell. *)

val set_cell : t -> int -> Ser_device.Cell_params.t -> unit
(** [update t [(g, cell)]]. *)

val sync : t -> Ser_sta.Assignment.t -> unit
(** Apply the difference to an assignment over the same circuit as one
    {!update}. *)

val total : t -> float
(** Bit-equal to {!Serpp.run}'s total on the same assignment. *)

val estimate : t -> int -> float
val profile : t -> int -> float array

val metrics : t -> Ser_sta.Incr_sta.metrics
(** The serpp total, critical delay, energy (as [Timing.total_energy]
    with its defaults) and area (as [Assignment.total_area]). *)

val stats : t -> stats
