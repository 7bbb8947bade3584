(** The incremental STA core shared by the cone-limited re-analysis
    handles ([Ser_incr.Incr] for ASERTA, [Ser_serpp.Serpp_incr] for the
    propagation-probability estimate).

    A value holds one cell assignment's complete timing state (loads,
    slews, delays, arrivals, critical delay) plus the per-gate terms
    that move only with a gate's cell or its node load: switching
    energy, leakage power, area and the two generated glitch widths.
    {!propagate} applies a batch of cell changes and recomputes only
    what they can reach:

    - {e loads}: the changed gates' fan-in nets;
    - {e forward STA}: the fanout cone, in ascending-id (topological)
      order, with {e early cutoff} — a gate whose recomputed output
      ramp and arrival are bit-for-bit unchanged does not dirty its
      readers;
    - {e electrical terms}: only where the cell or the node load
      changed.

    It reports which gates' delays changed and which gates were
    touched, so the owning handle can refresh its own downstream state
    (WS tables or propagation profiles) over the fan-in cone of the
    delay changes. Every recomputation replays
    {!Timing.analyze}'s per-gate body with bit-identical inputs and the
    folds ({!energy}, {!area}) follow the from-scratch operation order,
    so the state is bit-identical to a from-scratch pass. *)

val same_bits : float -> float -> bool
(** [true] guarantees the two floats are bit-identical (it tells [0.]
    from [-0.]); [false] merely means "recompute". The early-cutoff
    comparison of every incremental stage. *)

val same_row : float array -> float array -> bool
(** {!same_bits} over a whole row (physical equality short-circuits). *)

module Memo : sig
  type t
  (** Memo table in front of the electrical characterisations, keyed by
      (cell variant, input slope, load) for delay/output-ramp pairs and
      (cell variant, node capacitance, charge) for generated glitch
      widths. Thread-safe; shared by a core and all its forks (and
      shareable across cores over the same library). *)

  type stats = { hits : int; misses : int }

  val create : unit -> t
  val stats : t -> stats
end

type metrics = {
  m_unreliability : float;  (** the owning handle's unreliability total *)
  m_delay : float;  (** critical delay *)
  m_energy : float;  (** as [Timing.total_energy] with default clock *)
  m_area : float;  (** as [Assignment.total_area] *)
}

type t = private {
  lib : Ser_cell.Library.t;
  env : Timing.env;
  charge : float;  (** deposited charge of the generated glitch widths, fC *)
  circuit : Ser_netlist.Circuit.t;
  cells : Ser_device.Cell_params.t option array;  (** [None] at PIs *)
  loads : float array;
  input_ramp : float array;
  delays : float array;
  ramps : float array;
  arrival : float array;
  mutable critical_delay : float;
  dyn_energy : float array;  (** switching energy at the node load *)
  leak_power : float array;
  cell_area : float array;
  glitch_low : float array;  (** generated width, strike with output low *)
  glitch_high : float array;  (** ... with output high *)
  memo : Memo.t;
}
(** Read-only outside this module: the arrays are the live state. *)

type dirty = {
  touched : bool array;
      (** gates whose cell or node load changed (their electrical terms
          were refreshed) *)
  delay_changed : bool array;  (** gates whose delay is bit-changed *)
  sta_recomputed : int;  (** gates whose timing was re-evaluated *)
  sta_cutoff : int;  (** of which: output bit-unchanged, cone cut *)
}

val create :
  ?memo:Memo.t ->
  env:Timing.env ->
  charge:float ->
  Ser_cell.Library.t ->
  Assignment.t ->
  Timing.t ->
  t
(** Adopt a from-scratch timing pass of [asg] (arrays are copied). *)

val fork : t -> t
(** O(nodes) copy; the memo is shared. *)

val changes :
  who:string ->
  t ->
  (int * Ser_device.Cell_params.t) list ->
  (int * Ser_device.Cell_params.t) list
(** Validate a batch of gate -> variant writes and drop the no-ops.
    Raises [Invalid_argument (who ^ ": ...")] on a bad id, a primary
    input or a mismatched cell. *)

val diff :
  who:string -> t -> Assignment.t -> (int * Ser_device.Cell_params.t) list
(** The writes that turn the core's cells into the assignment's, in
    ascending id order. *)

val wants_rebuild : t -> (int * Ser_device.Cell_params.t) list -> bool
(** The change-set threshold above which cone propagation costs more
    than the from-scratch pass it replays: more than
    [max 8 (gate_count / 8)] changes. *)

val set_cells : t -> (int * Ser_device.Cell_params.t) list -> unit
(** Write cells without propagating (the rebuild path: follow with a
    from-scratch pass over {!assignment} and {!adopt}). *)

val adopt : t -> Timing.t -> unit
(** Replace the timing state with a from-scratch pass over the current
    cells and refresh every gate's electrical terms. *)

val propagate : t -> (int * Ser_device.Cell_params.t) list -> dirty
(** Apply a validated, no-op-free batch (see {!changes}) and propagate
    it through loads, forward STA and the electrical terms. *)

val assignment : t -> Assignment.t
(** A fresh assignment holding the current cells. *)

val energy : t -> float
val area : t -> float

val metrics : t -> unreliability:float -> metrics
(** The four cost metrics, with the owning handle's total. *)

val timing : t -> Timing.t
(** Materialise the full timing record (required times and slacks are
    rebuilt with {!Timing.analyze}'s backward sweep). *)
