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
    - {e per-gate unreliability / switching energy}: only where the
      cell, the node load, or the WS table actually changed.

    Every recomputation replays the corresponding from-scratch kernel
    ({!Ser_sta.Timing.analyze}'s per-gate body,
    {!Aserta.Analysis.ws_table}, {!Aserta.Analysis.gate_unreliability})
    with bit-identical inputs, and the aggregate metrics are exact
    sequential re-folds in the same order as the from-scratch code, so
    the results are {e bit-identical} to a full re-analysis — not
    approximately equal. A compensated (Kahan) running total of the
    unreliability is maintained across updates as a drift diagnostic
    and snapped back to the authoritative re-fold when it disagrees.

    Handles are cheap to {!fork} (copy-on-write: array spines are
    copied, the immutable per-gate rows are shared), which is how the
    optimizer's parallel candidate menus probe one-gate moves without
    re-analysing the circuit. A fork may be mutated on a worker domain;
    the only shared mutable state is the {!Memo} cache, which is
    mutex-guarded. *)

module Memo = Ser_sta.Incr_sta.Memo
(** Memo table in front of the electrical characterisations, shared by
    an engine and all its forks (and shareable across engines over the
    same library, including the serpp handle). *)

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
  mutable drift_snaps : int;  (** compensated total snapped to the re-fold *)
  mutable full_rebuilds : int;
      (** updates whose change set was so large that a from-scratch
          re-analysis was cheaper than cone propagation *)
}

type metrics = Ser_sta.Incr_sta.metrics = {
  m_unreliability : float;  (** U, the exact sequential re-fold *)
  m_delay : float;  (** critical delay *)
  m_energy : float;  (** as [Timing.total_energy] with default clock *)
  m_area : float;
}

val create :
  ?memo:Memo.t ->
  config:Aserta.Analysis.config ->
  Ser_cell.Library.t ->
  Ser_sta.Assignment.t ->
  Aserta.Analysis.masking ->
  t
(** Full from-scratch evaluation ({!Aserta.Analysis.run_electrical})
    adopted into an incremental handle. *)

val of_analysis :
  ?memo:Memo.t ->
  Ser_cell.Library.t ->
  Ser_sta.Assignment.t ->
  Aserta.Analysis.t ->
  t
(** Adopt an analysis already in hand (the optimizer's baseline) without
    re-running it. [asg] must be the assignment the analysis was run on;
    all arrays are copied, the analysis is not aliased. *)

val fork : t -> t
(** O(nodes) copy-on-write clone; see module doc. The memo is shared. *)

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
val critical_delay : t -> float

val total : t -> float
(** Exact sequential re-fold of the per-gate unreliability, bit-equal to
    [Analysis.run_electrical]'s total; also cross-checks the
    compensated running total and snaps it on drift. *)

val running_total : t -> float
(** The compensated (Kahan) running total maintained across updates. *)

val metrics : t -> metrics
(** The four cost metrics, each an exact re-fold matching the
    corresponding from-scratch computation bit for bit
    ([Analysis] total, critical delay, [Timing.total_energy] with its
    defaults, [Assignment.total_area]). *)

val assignment : t -> Ser_sta.Assignment.t
(** A fresh assignment holding the handle's current cells. *)

val timing : t -> Ser_sta.Timing.t
(** Materialise the full timing record (required times and slacks are
    rebuilt with the standard backward sweep). *)

val snapshot : t -> Aserta.Analysis.t
(** Materialise a full analysis record equal (bit for bit) to
    [Analysis.run_electrical config lib (assignment t) masking]. *)

val stats : t -> stats
val memo_stats : t -> Memo.stats
val memo : t -> Memo.t
