(** The incremental cone engine: one driver for the cone-limited,
    bit-identical re-analysis handles {!Incr} (ASERTA) and
    [Ser_serpp.Serpp_incr] (serpp).

    ASERTA's WS tables (Section 3.2, Eq 2) and serpp's propagation
    profiles are one recurrence: a gate's {e row} is built in
    reverse-topological order from its readers' Eq-1 brackets and rows.
    A handle holds the {!Ser_sta.Incr_sta} core, each gate's brackets
    ({!Aserta.Analysis.ws_brackets} of its delay), row and estimate, and
    the kernels' own per-gate state. {!Make.update} applies a batch of
    cell changes:

    - loads and forward STA over the fanout cone ({!Ser_sta.Incr_sta}),
      then the brackets of the gates whose delay changed;
    - rows over the fan-in cone of the delay changes, in descending ids:
      a row is stale iff one of its readers has a changed delay or row,
      and a bit-identical row cuts the cone. Primary-output rows are
      constant;
    - the per-gate kernel wherever the cell, the node load or the row
      changed.

    A change set above {!Ser_sta.Incr_sta.wants_rebuild}'s threshold
    adopts the kernels' full pass instead. Either way every kernel sees
    bit-identical inputs, so the state is bit-identical to the full pass
    on the same assignment. {!Make.score} evaluates a move in place
    under an undo log and rolls it back. Forks share only immutable
    state and may be mutated on worker domains. *)

type stats = {
  mutable updates : int;  (** updates that changed anything *)
  mutable cells_changed : int;
  mutable sta_recomputed : int;  (** gates whose timing was re-evaluated *)
  mutable sta_cutoff : int;  (** of which: output bit-unchanged, cone cut *)
  mutable rows_recomputed : int;
  mutable rows_cutoff : int;  (** of which: bit-identical, cone cut *)
  mutable gates_recomputed : int;  (** per-gate kernel evaluations *)
  mutable full_rebuilds : int;  (** updates that adopted a full pass *)
}

module type KERNELS = sig
  type ctx
  (** Assignment-independent, shared by forks. *)

  type row
  (** Never mutated once built. *)

  type run
  (** A full pass. *)

  type gates
  (** Mutable per-gate state beside the rows and estimates. *)

  val name : string
  (** Prefix of the [Invalid_argument] messages. *)

  val span : string option
  (** Trace span around each update. *)

  val counter : string -> string
  (** The metrics name of each {!stats} field and of ["cone_gates"], the
      histogram of forward-STA cone sizes. *)

  val samples : ctx -> float array

  val readers : ctx -> int array array
  (** Per gate, the gates whose delay and row its row reads. *)

  val row :
    ctx -> brackets:(int array * float array) array -> rows:row array -> int -> row

  val same_row : row -> row -> bool
  (** [true] only when bit-identical. *)

  val gate :
    ctx -> Ser_sta.Incr_sta.t -> row array -> gates -> float array -> int -> unit
  (** Refresh one gate's state and write its estimate into the array. *)

  val run : ctx -> Ser_cell.Library.t -> Ser_sta.Assignment.t -> run
  val parts : run -> Ser_sta.Timing.t * row array * float array

  val adopt : ctx -> Ser_sta.Incr_sta.t -> row array -> gates -> run -> unit
  (** Take over a full pass's per-gate state once the driver holds its
      timing, rows and estimates. *)

  val copy : gates -> gates

  val blit_gate : gates -> gates -> int -> unit
  (** [blit_gate src dst id] copies one gate's state (the undo log's
      save and restore). *)
end

module Make (B : KERNELS) : sig
  type t = private {
    sta : Ser_sta.Incr_sta.t;
    ctx : B.ctx;
    brackets : (int array * float array) array;
    rows : B.row array;
    estimate : float array;
    gates : B.gates;
    stats : stats;
    work : work;
  }

  and work
  (** The handle's scratch and the cone half of its undo log. *)

  val make :
    env:Ser_sta.Timing.env ->
    charge:float ->
    Ser_cell.Library.t ->
    Ser_sta.Assignment.t ->
    B.ctx ->
    B.gates ->
    B.run ->
    t
  (** Adopt a full pass of the assignment; [gates] is fresh storage for
      [B.adopt] to fill. *)

  val fork : t -> t
  (** O(nodes) copy-on-write clone with zeroed stats and its own
      scratch. *)

  val update : t -> (int * Ser_device.Cell_params.t) list -> unit
  (** Apply a batch of gate -> variant changes, propagate once over the
      union of the cones, and add the stats' deltas to the process-wide
      counters. No-op entries are skipped. Raises [Invalid_argument] on
      a bad id, a primary input or a mismatched cell. *)

  val update_silently : t -> (int * Ser_device.Cell_params.t) list -> unit
  (** {!update} without the trace span, the counter flush or a change
      to {!stats}: keeps a per-slot copy of a handle in step with it. *)

  val score : t -> (int * Ser_device.Cell_params.t) list -> (t -> 'a) -> 'a
  (** [score t changes f] is [f] of the handle after [update t changes],
      computed in place: the update runs (and counts) as usual, but
      under an undo log that saves each overwritten node's state once,
      and afterwards the handle is rolled back to its state before the
      move, bit for bit, stats included — even when [f] raises. Equal
      to [f] of a {!fork} after the same update, without the O(nodes)
      copy. *)

  val set_cell : t -> int -> Ser_device.Cell_params.t -> unit
  val sync : t -> Ser_sta.Assignment.t -> unit
  val assignment : t -> Ser_sta.Assignment.t
  val critical_delay : t -> float
  val stats : t -> stats

  val total : t -> float
  (** The sequential sum of the estimates in id order. *)
end
