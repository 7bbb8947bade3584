(** Propagation-probability SER estimation (Asadi & Tahoori): the cheap
    second backend.

    ASERTA computes, for every gate, an expected-width table per
    (primary output, sample width) and pays for it with Monte-Carlo
    path probabilities — [O((V+E) * samples * outputs)] plus a
    10k-vector fault simulation. This estimator collapses the per-gate
    state to a single {e propagation profile} over the sample-width
    grid: [profile.(i).(k)] is the expected glitch width reaching the
    latch boundary, summed over every reachable output, when a glitch
    of the [k]-th sample width appears at the output of gate [i]. One
    reverse-topological pass computes all profiles in
    [O((V+E) * samples)] with the analytic side-input sensitizations —
    no vectors, no per-output rows — which is what makes it cheap
    enough to rank optimizer candidates (see [Sertopt.Optimizer]
    tiered evaluation).

    The recurrence mirrors ASERTA's WS construction with the
    per-output split removed: a primary-output gate latches its own
    glitch (optionally derated by the latching window), an interior
    gate sums [S_is * profile_s(attenuate(w, delay_s))] over its
    unique successors [s]. Successor contributions are accumulated in
    successor-{e name} order (the circuit graph's successors,
    name-sorted), so the estimate does not depend on gate
    declaration order beyond float-rounding noise in the shared STA
    pass. Under reconvergent fan-out the sum counts a path family more
    than once (an upper-bound tendency ASERTA's normalized Eq-2 split
    avoids); profiles saturate at [profile_cap] so the estimate keeps
    the documented bound below even on pathologically reconvergent
    netlists.

    The per-gate estimate is [Z_i * profile_i(w_i)] with [w_i] the
    probability-blended generated glitch width from the same cell
    library lookups ASERTA uses — so cross-validation ([lib/repro]
    Xval) compares like against like. *)

type config = {
  charge : float;          (** deposited charge, fC *)
  n_samples : int;         (** sample-width grid size, >= 2 *)
  max_sample_width : float;(** widest sample, ps *)
  latch_window : float option;
      (** latching-window derating at the flip-flop boundary: a glitch
          arriving at a primary output latches at most this width (ps).
          [None] latches the full arriving width, matching ASERTA's
          boundary convention. *)
  pi_probs : float array option;
      (** per-input signal probabilities (default 0.5 everywhere) *)
  env : Ser_sta.Timing.env;
}

val default_config : config

type t = {
  config : config;
  circuit : Ser_netlist.Circuit.t;
  probs : float array;       (** signal probabilities, by node id *)
  timing : Ser_sta.Timing.t; (** the STA pass the profiles read *)
  samples : float array;     (** the sample-width grid, ps *)
  profile_cap : float;       (** saturation value of any profile entry *)
  profiles : float array array;
      (** [profiles.(id).(k)]: expected latched width over all outputs
          for a glitch of width [samples.(k)] at gate [id]; [[||]] for
          primary inputs *)
  areas : float array;       (** per-gate cell area Z_i (0 at PIs) *)
  gen_width : float array;   (** blended generated glitch width w_i, ps *)
  propagated : float array;  (** profile_i(w_i), ps *)
  estimate : float array;    (** per-gate estimate Z_i * propagated_i *)
  total : float;             (** sum of the per-gate estimates *)
}

val sample_widths : config -> float array
(** The geometric sample grid (same construction as ASERTA's). Raises
    [Invalid_argument] when [n_samples < 2]. *)

val gate_bound : t -> int -> float
(** Documented upper bound of [estimate.(id)]: the gate's area times
    {!field:profile_cap} ([n_outputs * min max_sample_width
    latch_window]). 0 for primary inputs. *)

type context = private {
  c_config : config;
  c_circuit : Ser_netlist.Circuit.t;
  c_probs : float array;  (** signal probabilities, by node id *)
  c_samples : float array;  (** the sample-width grid, ps *)
  c_profile_cap : float;  (** saturation value of any profile entry *)
  c_po_row : float array;  (** every primary-output gate's profile *)
  c_succs : int array array;
      (** per interior gate: the unique successors with [S_is > 0], in
          successor-name order (empty for inputs and primary outputs) *)
  c_sens : float array array;  (** their [S_is], aligned with [c_succs] *)
}
(** Everything a serpp pass needs that does not depend on the cell
    assignment: built once per circuit and configuration, shared by
    every full pass and incremental handle over it. *)

val context : ?probs:float array -> config -> Ser_netlist.Circuit.t -> context
(** [probs] reuses signal probabilities already computed for [config]. *)

val profile_row :
  context ->
  brackets:(int array * float array) array ->
  profiles:float array array ->
  int ->
  float array
(** The profile kernel: the fresh profile row of one non-input gate,
    reading only its sensitizing successors' [brackets] and [profiles]
    rows (both indexed by node id). Bit-identical to interpolating each
    attenuated sample width in the successor's profile. *)

val gate_estimate :
  context ->
  w_low:float ->
  w_high:float ->
  area:float ->
  profile:float array ->
  gen_width:float array ->
  propagated:float array ->
  estimate:float array ->
  int ->
  unit
(** One gate's [w_i], [profile_i(w_i)] and [Z_i * profile_i(w_i)] from
    its two generated glitch widths (strike with output low / high),
    written at the gate's index of [gen_width], [propagated] and
    [estimate] (no tuple per gate). *)

val run_context : context -> Ser_cell.Library.t -> Ser_sta.Assignment.t -> t
(** {!run} over a prebuilt context: one STA pass, then one full pass of
    the profile kernel and the per-gate estimates. *)

val run :
  ?config:config -> Ser_cell.Library.t -> Ser_sta.Assignment.t -> t
(** One full estimation pass: {!run_context} over a fresh {!context}.
    Not validated — prefer {!run_checked} at API boundaries. *)

val run_checked :
  ?config:config ->
  Ser_cell.Library.t ->
  Ser_sta.Assignment.t ->
  (t, Ser_util.Diag.t) result
(** {!run} under a [Diag] guard: rejects a malformed config up front,
    clamps sub-epsilon negative estimates, and turns any non-finite
    per-gate or total estimate into a structured error naming the
    gate. *)
