(** Incremental fanout-cone re-analysis for SERTOPT's inner loops.

    A handle holds the complete per-gate state of one STA + ASERTA
    evaluation (loads, delays, ramps, arrivals, WS tables, per-gate
    unreliability, energy terms). Changing the cell of a set of gates
    ({!update} / {!set_cell}) recomputes only what the change can
    reach:

    - {e loads}: the changed gates' fan-in nets (input-pin capacitance);
    - {e forward STA}: the fanout cone of the changed gates and nets, in
      topological (ascending-id) order, with {e early cutoff} — a gate
      whose recomputed output ramp and arrival time are bit-for-bit
      unchanged does not dirty its readers;
    - {e WS tables}: the fan-in cone of the gates whose {e delay}
      changed, in reverse-topological order, again with bitwise cutoff;
    - {e per-gate unreliability / switching energy} (and, on a
      spectrum handle, per-gate FIT): only where the cell, the node
      load, or the WS table actually changed.

    Every recomputation calls the kernel the from-scratch pass uses
    ({!Ser_sta.Timing.analyze}'s per-gate body,
    {!Aserta.Analysis.ws_table} and {!Aserta.Analysis.gate_unreliability}
    through the analysis's own {!Aserta.Analysis.context}, and
    {!Aserta.Ser_rate.gate_rate}) with bit-identical inputs, and the
    aggregate metrics are exact re-folds in the same order as the
    from-scratch code, so the results are {e bit-identical} to a full
    re-analysis — not approximately equal.

    A handle evaluates one of SERTOPT's two objectives: the paper's
    fixed-charge unreliability [U], or (built with [~rate]) the
    charge-spectrum FIT of {!Aserta.Ser_rate.run} under the latching
    clock fixed in that {!Aserta.Ser_rate.quadrature}.

    Handles are cheap to {!fork} (copy-on-write: array spines are
    copied, the immutable per-gate rows and compiled models are
    shared), which is how the optimizer's parallel candidate menus
    probe one-gate moves without re-analysing the circuit. A fork may
    be mutated on a worker domain; handles share no mutable state. *)

type t
(** One incremental evaluation state. Mutable; not itself thread-safe —
    mutate a given handle from one domain at a time (forks are
    independent). *)

type stats = {
  mutable updates : int;  (** {!update} calls that changed anything *)
  mutable cells_changed : int;
  mutable sta_recomputed : int;  (** gates whose timing was re-evaluated *)
  mutable sta_cutoff : int;  (** of which: output bit-unchanged, cone cut *)
  mutable tables_recomputed : int;
  mutable tables_cutoff : int;
  mutable gates_recomputed : int;  (** per-gate unreliability re-evaluations *)
  mutable full_rebuilds : int;
      (** updates whose change set was so large that a from-scratch
          re-analysis was cheaper than cone propagation *)
}

type metrics = Ser_sta.Incr_sta.metrics = {
  m_unreliability : float;
      (** U, the exact sequential re-fold; on a spectrum handle the FIT
          total, [Floatx.sum] of the per-gate FIT as in
          {!Aserta.Ser_rate.run} *)
  m_delay : float;  (** critical delay *)
  m_energy : float;  (** as [Timing.total_energy] with default clock *)
  m_area : float;
}

val create :
  ?rate:Aserta.Ser_rate.quadrature ->
  config:Aserta.Analysis.config ->
  Ser_cell.Library.t ->
  Ser_sta.Assignment.t ->
  Aserta.Analysis.masking ->
  t
(** Full from-scratch evaluation ({!Aserta.Analysis.run_electrical})
    adopted into an incremental handle; see {!of_analysis}. *)

val of_analysis :
  ?rate:Aserta.Ser_rate.quadrature ->
  Ser_cell.Library.t ->
  Ser_sta.Assignment.t ->
  Aserta.Analysis.t ->
  t
(** Adopt an analysis already in hand (the optimizer's baseline) without
    re-running it. [asg] must be the assignment the analysis was run on.
    The per-gate arrays are copied; the immutable parts (WS-table rows,
    the masking and the {!Aserta.Analysis.context}) are shared. With
    [rate] (a spectrum with its clock period, fixed for the handle's
    lifetime) the handle also maintains the per-gate FIT of
    {!Aserta.Ser_rate.run} and {!metrics} reports its total. *)

val fork : t -> t
(** O(nodes) copy-on-write clone; see module doc. *)

val update : t -> (int * Ser_device.Cell_params.t) list -> unit
(** Apply a batch of gate -> variant changes and propagate once over the
    union of the affected cones. No-op entries (already-assigned
    variant) are skipped. Raises [Invalid_argument] like
    [Assignment.set] on a bad id or mismatched cell. *)

val set_cell : t -> int -> Ser_device.Cell_params.t -> unit
(** [update t [(g, cell)]]. *)

val sync : t -> Ser_sta.Assignment.t -> unit
(** Diff the handle against an assignment over the same circuit and
    apply the difference as one {!update}. *)

val cell : t -> int -> Ser_device.Cell_params.t
val unreliability : t -> int -> float
(** The fixed-charge [U_i] of a gate, under either objective. *)

val fit : t -> int -> float
(** The FIT of a gate on a spectrum handle; [0.] otherwise. *)

val critical_delay : t -> float

val total : t -> float
(** Exact sequential re-fold of the per-gate unreliability, bit-equal to
    [Analysis.run_electrical]'s total. *)

val metrics : t -> metrics
(** The four cost metrics, each an exact re-fold matching the
    corresponding from-scratch computation bit for bit
    ([Analysis] total or [Ser_rate] total, critical delay,
    [Timing.total_energy] with its defaults,
    [Assignment.total_area]). *)

val assignment : t -> Ser_sta.Assignment.t
(** A fresh assignment holding the handle's current cells. *)

val timing : t -> Ser_sta.Timing.t
(** Materialise the full timing record (required times and slacks are
    rebuilt with the standard backward sweep). *)

val snapshot : t -> Aserta.Analysis.t
(** Materialise a full analysis record equal (bit for bit) to
    [Analysis.run_electrical config lib (assignment t) masking]. *)

val stats : t -> stats
