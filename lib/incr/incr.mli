(** Incremental ASERTA re-analysis for SERTOPT's inner loops: the
    {!Cone} driver with ASERTA's kernels.

    A handle holds the complete per-gate state of one STA + ASERTA
    evaluation. Changing cells ({!update} / {!set_cell} / {!sync})
    recomputes only what the change can reach ({!Cone}): the WS tables
    are the rows, a table reads its node's [fanout] readers, and the
    per-gate kernel is {!Aserta.Analysis.gate_unreliability} (plus
    {!Aserta.Ser_rate.gate_rate} on a spectrum handle). The kernels are
    the ones the from-scratch pass uses, through the analysis's own
    {!Aserta.Analysis.context}, and a wholesale rebuild adopts
    {!Aserta.Analysis.run_context}, so the results are {e bit-identical}
    to a full re-analysis — not approximately equal.

    A handle evaluates one of SERTOPT's two objectives: the paper's
    fixed-charge unreliability [U], or (built with [~rate]) the
    charge-spectrum FIT of {!Aserta.Ser_rate.run} under the latching
    clock fixed in that {!Aserta.Ser_rate.quadrature}. Each update
    records an [incr.update] span and flushes its work into the
    [incr.*] counters and the [incr.cone_gates] histogram. *)

type t
(** Mutable; mutate a handle from one domain at a time (forks are
    independent). *)

type metrics = Ser_sta.Incr_sta.metrics = {
  m_unreliability : float;
      (** U; on a spectrum handle the FIT total, [Floatx.sum] of the
          per-gate FIT as in {!Aserta.Ser_rate.run} *)
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
(** {!of_analysis} of a fresh {!Aserta.Analysis.run_electrical}. *)

val of_analysis :
  ?rate:Aserta.Ser_rate.quadrature ->
  Ser_cell.Library.t ->
  Ser_sta.Assignment.t ->
  Aserta.Analysis.t ->
  t
(** Adopt an analysis of [asg] already in hand (the optimizer's
    baseline). The per-gate arrays are copied; the WS-table rows, the
    masking and the context are shared. With [rate] (a spectrum with its
    clock period, fixed for the handle's lifetime) the handle also
    maintains the per-gate FIT and {!metrics} reports its total. *)

val fork : t -> t
(** O(nodes) copy-on-write clone with zeroed stats. *)

val update : t -> (int * Ser_device.Cell_params.t) list -> unit
(** Apply a batch of gate -> variant changes ({!Cone.Make.update}). *)

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

val cell : t -> int -> Ser_device.Cell_params.t

val unreliability : t -> int -> float
(** The fixed-charge [U_i] of a gate, under either objective. *)

val fit : t -> int -> float
(** The FIT of a gate on a spectrum handle; [0.] otherwise. *)

val critical_delay : t -> float

val core : t -> Ser_sta.Incr_sta.t
(** The handle's incremental STA core (read-only): cells, loads, timing
    and the per-gate electrical terms. *)

val brackets : t -> int -> int array * float array
(** A gate's Eq-1 brackets ({!Aserta.Analysis.ws_brackets} of its
    delay). *)

val total : t -> float
(** Bit-equal to [Analysis.run_electrical]'s total. *)

val metrics : t -> metrics
(** The four cost metrics, each bit-equal to its from-scratch
    computation. *)

val assignment : t -> Ser_sta.Assignment.t
(** A fresh assignment holding the handle's current cells. *)

val timing : t -> Ser_sta.Timing.t
(** The full timing record ({!Ser_sta.Incr_sta.timing}). *)

val snapshot : t -> Aserta.Analysis.t
(** A full analysis record bit-equal to
    [Analysis.run_electrical config lib (assignment t) masking]. *)

val stats : t -> Cone.stats
