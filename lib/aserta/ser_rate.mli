(** Soft-error {e rate} estimation over a particle charge spectrum —
    the extension the paper defers to "future versions of ASERTA [with]
    look-up tables for different amounts of injected charge".

    A strike deposits a random charge [Q]; the widely used single-slope
    model puts an exponential tail on the collected charge,

    {v flux(>Q) = F0 * exp(-Q / Qs) v}

    with [Qs] the charge-collection slope of the technology (a few fC
    at 70 nm). A glitch of width [w] arriving at a latch is captured
    with probability [min(1, w / T_clk)] (latching-window masking for a
    uniformly random strike instant). The failure rate contributed by
    gate [i] is then

    {v SER_i = F0 * Z_i * E_Q[ sum_j P_latch(W_ij(Q)) ] v}

    evaluated by numerically integrating over the charge spectrum,
    reusing the expected-width tables of a completed
    {!Analysis.t} ({!Analysis.width_at}) — no additional electrical
    passes. Reported in FIT (failures per 10^9 device
    hours) under a documented, synthetic flux normalisation. *)

type spectrum = {
  flux_f0 : float; (** strike rate scale, strikes per gate-area-unit per 10^9 h *)
  q_slope : float; (** exponential charge-collection slope, fC *)
  q_min : float;   (** smallest charge integrated, fC *)
  q_max : float;   (** integration cutoff, fC *)
  n_points : int;  (** quadrature points (log-spaced trapezoids) *)
}

val default_spectrum : spectrum
(** F0 = 1000, Qs = 6 fC, integration over 1–120 fC with 24 points. *)

type t = {
  spectrum : spectrum;
  clock_period : float;   (** ps *)
  per_gate : float array; (** FIT contribution of each gate *)
  total : float;          (** circuit FIT *)
}

val run :
  ?spectrum:spectrum ->
  ?clock_period:float ->
  Ser_cell.Library.t ->
  Ser_sta.Assignment.t ->
  Analysis.t ->
  t
(** Integrate the spectrum against a completed analysis: {!gate_rate}
    for every gate, summed with {!Ser_util.Floatx.sum}. The default
    clock period is 1.2x the analysed critical delay. Generated glitch
    widths at each quadrature charge come from the cell library
    (closed-form or tables, per the library backend); their propagation
    to the outputs reuses the analysis' expected-width tables. Raises
    [Invalid_argument] on fewer than 2 points or a bad charge range. *)

type quadrature
(** A spectrum's quadrature charges and densities together with the
    latching clock period, prepared once and shared by every
    {!gate_rate} call. *)

val quadrature : ?spectrum:spectrum -> clock_period:float -> unit -> quadrature
(** Validates the spectrum like {!run}. *)

val gate_rate :
  quadrature ->
  Ser_cell.Library.glitch ->
  node_cap:float ->
  p1:float ->
  area:float ->
  samples:float array ->
  po:int ->
  rows:float array array ->
  float
(** The FIT of one non-input gate, the one per-gate kernel of {!run}
    and of the incremental engine's spectrum objective
    ([Ser_incr.Incr]): the gate's glitch model at its total node
    capacitance, its one-probability [p1] and area, its WS rows
    ([Analysis.t.tables.(id)], over the sample grid [samples]) and its
    own output position [po] ([-1] if none), read through
    {!Analysis.width_at}. *)

val latch_probability : clock_period:float -> float -> float
(** [min(1, w / T_clk)], exposed for tests. *)
