(** ASERTA: accurate soft-error tolerance analysis (Section 3 of the
    paper).

    For every gate [i] the tool injects a fixed charge at the gate
    output, looks up the generated glitch width, and propagates it to
    the primary outputs through three masking models:

    - {e logical masking}: path-sensitization probabilities [P_ij]
      estimated by random-vector fault simulation, split over
      successors with the normalised weights [pi_isj] of Eq. 2;
    - {e electrical masking}: the reverse-topological expected-width
      pass over 10 sample glitch widths with linear interpolation
      (Section 3.2), attenuation per Eq. 1;
    - {e latching-window masking}: a glitch's latching probability is
      proportional to its width, so the gate's contribution is
      [U_i = Z_i * sum_j W_ij] (Eq. 3) with [Z_i] the gate area, and
      the circuit unreliability is [U = sum_i U_i] (Eq. 4). *)

type pi_split =
  | Normalized
      (** Eq. 2: [pi_isj = S_is P_ij / sum_k S_ik P_kj], which satisfies
          [sum_s pi_isj P_sj = P_ij] (required by Lemma 1) *)
  | Naive
      (** [pi_isj = S_is P_sj], the split the paper argues against —
          kept as an ablation *)

type masking_backend =
  | Monte_carlo
      (** the paper's choice: random-vector fault simulation
          (10 000 vectors), exact up to sampling noise even under
          reconvergent fan-out *)
  | Analytic_masking
      (** vectorless backward propagation
          ({!Ser_logicsim.Probs.path_probabilities_analytic}); exact on
          fan-out-free circuits, optimistic under reconvergence, but
          instant — useful inside tight optimization loops *)

type config = {
  vectors : int;        (** random vectors for [P_ij] (paper: 10 000) *)
  seed : int;
  charge : float;       (** injected charge, fC (paper's figures: 16) *)
  n_samples : int;      (** sample glitch widths (paper: 10) *)
  max_sample_width : float;
      (** the "very wide" top sample, ps; must exceed twice any gate
          delay for Lemma 1 to hold *)
  split : pi_split;
  masking_backend : masking_backend;
  pi_probs : float array option;
      (** per-input one-probabilities (indexed like [inputs]); [None]
          means the paper's uniform 0.5. Biases both the static signal
          probabilities and the random vectors of the fault
          simulation. *)
  env : Ser_sta.Timing.env; (** output load / input slew context *)
}

val default_config : config
(** 10 000 vectors, seed 42, 16 fC, 10 samples, 800 ps, [Normalized]
    split, [Monte_carlo] masking, uniform 0.5 input statistics, default
    env. The 800 ps top sample is "very wide" for 70 nm-class gate
    delays (tens of ps) while keeping the geometric sample grid dense
    where glitches actually live; widen it for unusually slow
    libraries. *)

type masking = {
  probs : float array;             (** static one-probabilities p_i *)
  path_probs : Ser_logicsim.Probs.path_probs; (** P_ij *)
}
(** The logical-masking data. It depends only on circuit topology and
    input statistics — not on sizing/VDD/Vth — so SERTOPT computes it
    once and re-runs only the electrical pass in its loop. *)

type context
(** The assignment-independent part of the electrical pass, built by
    {!context} from the config, the masking and the circuit: the sample
    grid, and per interior gate its Eq-2 blend weights per (output,
    successor), the successors read from the circuit's graph
    ([Circuit.graph]). Valid for any cell assignment of the same
    circuit, so the incremental engine ([Ser_incr.Incr]) reuses it for
    every update and every wholesale rebuild. *)

type t = {
  config : config;
  circuit : Ser_netlist.Circuit.t;
  masking : masking;
  timing : Ser_sta.Timing.t;
  gen_width : float array;
      (** w_i: expected generated glitch width at each gate output
          (strike polarity weighted by p_i), ps *)
  expected_width : float array array;
      (** [W_ij]: expected width reaching output position j of a glitch
          generated at gate i, ps *)
  unreliability : float array; (** U_i per gate (0 at primary inputs) *)
  total : float;               (** U *)
  samples : float array;       (** the sample glitch-width grid used *)
  tables : float array array array;
      (** [tables.(i).(j)] maps the sample widths to expected widths at
          output [j] for a glitch born at gate [i] (the WS tables of
          Section 3.2); empty at primary inputs. Kept for
          {!width_at} and the incremental engine. Rows are
          shared (every row a gate cannot reach aliases one all-zero
          row) and must not be mutated. *)
  context : context;  (** the context this pass built *)
}

val compute_masking :
  ?prune:bool array -> config -> Ser_netlist.Circuit.t -> masking
(** Signal probabilities (analytic, 0.5 at PIs, as the paper obtains
    from Synopsys DC) and fault-simulated [P_ij], bit-identical at any
    pool width. The fault simulation's root flips (fanout-free-region
    roots times batches) are added to the [aserta.stem_flips]
    counter.

    [prune] (node-id-indexed, from {e lib/odc}'s
    [Odc.prune_set]) skips fault injection for ODC-proven-masked
    sites: their exhaustive no-PO-difference witness guarantees the
    simulation would count zero detections, so their [P_ij] rows are
    zero either way and every downstream number is bit-identical to
    the unpruned run — the skip only saves simulation work. The
    pruned-site count is recorded in the [aserta.odc_pruned] counter.
    Only the [Monte_carlo] backend consumes it: the analytic
    backend's independence assumption can assign nonzero [P_ij] to a
    genuinely masked site, so pruning there would change (not merely
    accelerate) the estimate, and the mask is deliberately ignored. *)

val context : config -> masking -> Ser_netlist.Circuit.t -> context
(** Build the {!context} (in parallel over the gates). *)

val run_context : context -> Ser_cell.Library.t -> Ser_sta.Assignment.t -> t
(** Electrical + latching pass for a given cell assignment on a built
    context: fills every WS table and every [U_i] through {!ws_table}
    and {!gate_unreliability}; bit-identical at any pool width.
    O((V + E) * samples * outputs). Raises [Invalid_argument] if the
    assignment is for a different circuit. *)

val run_electrical :
  config -> Ser_cell.Library.t -> Ser_sta.Assignment.t -> masking -> t
(** Electrical + latching pass for a given cell assignment, reusing
    precomputed masking: {!context} followed by {!run_context}. *)

val run :
  ?config:config -> ?prune:bool array ->
  Ser_cell.Library.t -> Ser_sta.Assignment.t -> t
(** [compute_masking] followed by [run_electrical]. [prune] is passed
    through to {!compute_masking}. *)

val validate : config -> (unit, Ser_util.Diag.t) result
(** Rejects a nonsensical [config] (vectors < 1, non-finite or
    non-positive charge, < 2 samples, bad top sample) with a
    diagnostic. *)

val check : t -> (t, Ser_util.Diag.t) result
(** The result check of {!run_checked}, for an analysis from any source
    (a {!run}, or a snapshot of an incremental handle): rejects a
    numerically poisoned answer (non-finite or negative per-gate
    unreliability) with a located diagnostic instead of a silent NaN.
    Sub-epsilon negative [U_i] from interpolation round-off is clamped
    to 0 and [total] re-summed. *)

val run_checked :
  ?config:config ->
  Ser_cell.Library.t ->
  Ser_sta.Assignment.t ->
  (t, Ser_util.Diag.t) result
(** {!run} between {!validate} and {!check}. *)

val sample_widths : config -> float array
(** The sample glitch-width grid used by the electrical pass
    (geometric, topped by [max_sample_width]). *)

val ws_brackets : samples:float array -> delay:float -> int array * float array
(** The Eq-1 attenuation of the sample grid through one gate delay: per
    sample, the interpolation bracket of the attenuated width ([-1] when
    fully attenuated) and its fraction. A pure function of
    [(delay, grid)], computed once per gate delay and read by every
    driver of the gate. *)

(** {1 Per-gate kernels}

    The one WS-table kernel and the one per-gate-unreliability kernel,
    shared by {!run_electrical} and the incremental engine
    ([Ser_incr.Incr]): recomputing a gate through them with
    bit-identical inputs yields bit-identical output, which is what
    makes incremental re-analysis bit-identical to a from-scratch
    pass. *)

val ws_table :
  context ->
  brackets:(int array * float array) array ->
  tables:float array array array ->
  int ->
  float array array
(** The WS expected-width table of one non-input gate (Section 3.2): an
    [outputs * samples] matrix giving the expected width reaching each
    primary output for a glitch of each sample width born at the gate.
    [brackets] is node-indexed ([brackets.(s)] = {!ws_brackets} of gate
    [s]'s delay); the kernel reads only the entries of the gate's
    successors and their rows in [tables], which must already hold
    every successor's matrix. A primary-output gate reads nothing. Rows
    of outputs the gate cannot reach alias one shared all-zero row;
    callers must treat every row as immutable. *)

val gate_unreliability :
  context ->
  tables:float array array array ->
  w_low:float ->
  w_high:float ->
  area:float ->
  int ->
  float * float array * float
(** Steps (i)/(iv) and Eqs 3-4 for one non-input gate: blend the two
    generated glitch widths ([w_low]/[w_high], strike with output
    low/high) with the gate's one-probability into [w_i], interpolate
    the gate's WS table at [w_i] for every output, and weight by
    [area]. Returns [(w_i, W_ij row, U_i)]. The interpolation bracket of
    [w_i] is found once for all outputs, and an output the gate cannot
    reach is the literal [+0.] (exactly what interpolating its all-zero
    row gives). The glitch-model queries that produce [w_low]/[w_high]
    stay with the caller, which holds the gate's
    {!Ser_cell.Library.glitch} kernel. *)

val successor_weight :
  t -> gate:int -> succ:int -> po:int -> float
(** The Eq. 2 weight [pi_isj] actually used in the pass (exposed for
    tests of the normalisation property
    [sum_s pi_isj * P_sj = P_ij]). *)

val width_at :
  samples:float array ->
  own_po:int ->
  rows:float array array ->
  po:int ->
  float ->
  float
(** The expected width at output [po] of a glitch of the given width
    born at a non-input gate whose WS rows are [rows] (over the sample
    grid [samples], clamped to it) and whose own output position is
    [own_po] ([-1] if none); the identity at the gate's own output
    position. This is the query that makes charge-spectrum analyses
    ({!Ser_rate}) possible without re-running the electrical pass: the
    width response to a strike of any energy is already tabulated. *)
