(** SERTOPT's top level (Section 4): starting from a speed-optimized
    baseline, vary the gate delay assignment inside the nullspace of
    the path-topology matrix T — so the constrained path delays are
    preserved — re-match each candidate assignment to the discrete
    library, and keep the assignment minimising the Eq. 5 cost.

    The delay-assignment search is a direction search over delta
    vectors projected onto [null(T)]; the projection is computed with
    the small [K x K] system of
    {!Ser_linalg.Matrix.project_onto_nullspace}, never an explicit
    basis. The search result is then refined one gate at a time by one
    menu walk, run as the greedy stage and (with an ODC report) as the
    ODC downsizing stage. The logical-masking data of ASERTA is
    computed once and reused by every cost evaluation.

    Every candidate is evaluated on one {!Ser_incr.Incr} engine, under
    either objective: it is kept in sync with the candidate stream by
    diffing, so an evaluation re-analyses only the cones the changed
    cells reach, and each parallel menu entry probes a copy-on-write
    fork of the incumbent. Results are bit-identical to measuring every
    candidate from scratch ({!Cost.measure}, which still measures the
    baseline and the returned result). *)

type tier =
  | Exact
      (** every greedy-menu candidate is measured exactly (default) *)
  | Serpp_prefilter of int
      (** rank each greedy menu with the single-pass
          propagation-probability estimate ({!Ser_serpp.Serpp}: one STA
          + one profile pass, no vectors, no budget charge) and give
          only the top-k candidates to the exact engine. The accept
          decision still compares exact costs only, so tiering can skip
          an improvement the estimate misranks but never accepts one on
          estimated cost; the exact evaluations avoided are counted in
          the [sertopt.exact_evals_saved] metric and the rankings in
          [sertopt.tier_rank_evals]. Values below 1 behave as 1. *)

type config = {
  aserta : Aserta.Analysis.config;
  objective : Cost.objective;
      (** what the U term of Eq. 5 measures: fixed-charge unreliability
          (the paper) or a charge-spectrum FIT (extension). With the
          spectrum objective the latching clock is frozen at 1.2x the
          baseline critical delay for all candidates. The greedy stage
          visits gates by their fixed-charge [U_i] under either
          objective. *)
  tier : tier;  (** greedy-menu evaluation economy, default {!Exact} *)
  weights : Cost.weights;  (** Eq. 5 weights *)
  max_evals : int;       (** cost-evaluation budget for the search *)
  greedy_passes : int;
      (** discrete per-gate refinement sweeps after the delay-assignment
          search (an extension over the paper; set 0 for the pure
          nullspace method) *)
  greedy_gates : int; (** gates (softest first) visited per sweep *)
  replay_guard : int;
      (** 0 disables. Otherwise: after the search, replay this many
          random vectors through the independent vector-replay
          estimator ({!Aserta.Measured}) for the baseline, the pure
          delay-assignment result and the greedy result, and return the
          candidate with the lowest replayed unreliability. Guards
          against the optimizer overfitting the independence
          approximations of Eq. 2 on large reconvergent circuits (the
          probabilistic U can improve while actual-vector behaviour
          worsens). *)
  odc_obs : float array option;
      (** node-id-indexed observability upper bounds from an ODC report
          ([Ser_odc.Odc.obs_array]; must match the circuit's node
          count). When present, a downsizing stage runs after the
          greedy refinement: gates with [obs <= odc_threshold]
          contribute (near-)zero unreliability whatever their drive
          strength, so their smaller variants are proposed
          (lowest-observability gates first) and measured with the
          exact engine. The report seeds moves only — acceptance is on
          the exact Eq. 5 cost, so a wrong estimate can waste
          evaluations but never degrade the result. Proposed and
          accepted moves are counted in [sertopt.odc_moves] /
          [sertopt.odc_accepts]. *)
  odc_threshold : float;
      (** observability cutoff for the ODC-seeded stage (default
          0.05) *)
}

val default_config : config

type result = {
  baseline : Ser_sta.Assignment.t;
  optimized : Ser_sta.Assignment.t;
  guard_choice : string option;
      (** with [replay_guard > 0]: which candidate the replay gate chose
          ("greedy", "search" or "baseline"); [None] when disabled *)
  baseline_metrics : Cost.metrics;
  optimized_metrics : Cost.metrics;
  baseline_analysis : Aserta.Analysis.t;
  optimized_analysis : Aserta.Analysis.t;
  masking : Aserta.Analysis.masking;
  cost_trace : float list; (** improving cost values, oldest first *)
  evals : int;
  degraded : bool;
      (** the run was cut short by an exhausted {!Ser_util.Budget}.
          [optimized] is still a valid, timing-feasible assignment —
          the best incumbent seen, falling back to [baseline] when not
          even one search evaluation fit the budget. *)
}

val unreliability_reduction : result -> float
(** [1 - U_opt / U_base], the paper's "Decrease in Unreliability". *)

type knob_summary = {
  changed_gates : int;
  upsized : int;
  downsized : int;
  longer_channel : int;
  shorter_channel : int;
  vdd_raised : int;
  vdd_lowered : int;
  vth_raised : int;
  vth_lowered : int;
  vdds_used : float list; (** distinct supplies in the optimized circuit *)
  vths_used : float list;
}

val knob_summary : result -> knob_summary
(** How the optimizer actually moved the four knobs — the "VDDs used" /
    "Vths used" columns of Table 1 plus a change breakdown. *)

val pp_knob_summary : Format.formatter -> knob_summary -> unit

val sample_menu : cap:int -> 'a list -> 'a list
(** Deterministic exact cap on a candidate menu: the full list when it
    has at most [cap] elements, otherwise exactly [cap] evenly spaced
    elements (indices [floor (i * len / cap)]) in the original order.
    Raises [Invalid_argument] on [cap <= 0]. *)

val size_for_speed :
  ?env:Ser_sta.Timing.env ->
  ?max_size:float ->
  Ser_cell.Library.t ->
  Ser_netlist.Circuit.t ->
  Ser_sta.Assignment.t
(** Greedy critical-path upsizing at the nominal corner — the stand-in
    for the paper's Design-Compiler speed optimization that produces
    the baseline circuits. Each trial is re-timed incrementally on a
    timing-only {!Ser_sta.Incr_sta} core (counted in
    [sta.sizing_trials], traced as [sertopt.size_for_speed]); the
    result is bit-identical to re-running {!Ser_sta.Timing.analyze} per
    trial. *)

val optimize :
  ?config:config ->
  ?masking:Aserta.Analysis.masking ->
  ?budget:Ser_util.Budget.t ->
  ?initial:Ser_sta.Assignment.t ->
  Ser_cell.Library.t ->
  Ser_sta.Assignment.t ->
  result
(** Run SERTOPT on a baseline assignment. Pass [masking] to reuse
    already-computed logical-masking data (it depends only on the
    circuit and the vector count/seed).

    [budget] bounds the expensive cost evaluations (count and/or wall
    clock); when it runs out the search stops where it is and the
    result is flagged {!result.degraded} — never an exception, never a
    timing-infeasible assignment. [initial] seeds the search with a
    checkpointed incumbent (see {!Checkpoint}): it is measured once and
    adopted if it beats the direction-search result. Raises
    [Invalid_argument] if [initial] belongs to a different circuit. *)
