(** Execution of canonical {!Request} records — the shared back half of
    the one-shot CLI commands, the batch worker and the serve daemon.

    {!execute} renders each op's one output document, its payload.
    [sertool analyze --json] and [optimize --json] write it, the CLI
    text for analyze, optimize and rate prints its numbers from it, and
    the worker protocol and the serve response carry it. Analyze,
    optimize and odc also return their full result records, for the
    CLI's extra outputs. Payloads contain no timestamps or elapsed
    times, so an identical request on an identical build renders
    bit-identically — the property the serve result cache and journal
    resume rely on. Every op runs on a {!prepared} value, which sizes
    its baseline once for all of them. *)

val load_circuit : Request.source -> Ser_netlist.Circuit.t
(** The one canonical netlist loader: a [Spec] that names an existing
    file parses it (.v as Verilog, anything else as .bench), a known
    benchmark name generates it, an [Inline_bench] parses the carried
    text. Raises [Ser_util.Diag.Diag_error] (or [Failure] for an
    unknown name) — call under {!Ser_util.Diag.guard} or {!run}. *)

val make_library :
  vdds:float list -> vths:float list -> Ser_cell.Library.t
(** A library on {!Request.menu_axes}. *)

val library_id : Ser_cell.Library.t -> string
(** Canonical one-line rendering of the library's axes — the "library"
    component of serve cache keys. Two libraries built by
    {!make_library} with equal menus have equal ids. *)

type prepared = private {
  circuit : Ser_netlist.Circuit.t;
  library : Ser_cell.Library.t;
  baseline : Ser_sta.Assignment.t Lazy.t;  (** read it with {!baseline} *)
  mutable analysis : Aserta.Analysis.t option;
      (** the unpruned, checked ASERTA analysis of the baseline for the
          last config an op asked for *)
}
(** A loaded circuit and library plus the work every op on them
    shares; the serve daemon pools prepared values. *)

val prepare : Request.t -> (prepared, Ser_util.Diag.t) result
(** The load step every op runs on: {!load_circuit} of the request's
    source and {!make_library} of its VDD/Vth menus. *)

val baseline : prepared -> Ser_sta.Assignment.t
(** {!Sertopt.Optimizer.size_for_speed}, run once per prepared value:
    the timing-feasible circuit every op starts from. Shared; do not
    mutate it. *)

type backend_result =
  | Aserta of Aserta.Analysis.t
      (** Monte-Carlo expected-width analysis (the paper's method) *)
  | Serpp of Ser_serpp.Serpp.t
      (** single-pass propagation-probability estimate *)

val analyze :
  ?odc_report:Ser_odc.Odc.t ->
  Request.t ->
  prepared ->
  (backend_result, Ser_util.Diag.t) result
(** Checked SER analysis of the {!baseline} with the requested backend
    (ASERTA by default, serpp when [req.backend = "serpp"]); the ASERTA
    analysis is memoized in [p.analysis]. The analyze payload has the
    same keys for both backends but [max_path_probability] — per-gate
    [u] means the serpp estimate under the serpp backend — plus a
    ["backend"] field naming which estimator produced it.

    [odc_report] (ASERTA backend only; rejected for serpp) skips the
    provably-masked fault sites of the report during the Monte-Carlo
    [P_ij] pass — bit-identical totals, [aserta.odc_pruned] counts the
    skipped sites; that analysis is never memoized. The report's
    digest must match the loaded netlist. *)

val optimize :
  ?budget:Ser_util.Budget.t ->
  ?initial:(Ser_sta.Assignment.t -> Ser_sta.Assignment.t) ->
  ?odc_report:Ser_odc.Odc.t ->
  Request.t ->
  prepared ->
  (Sertopt.Optimizer.result, Ser_util.Diag.t) result
(** [initial] is called once with the {!baseline} and returns the
    incumbent to start from (a checkpoint restored onto that
    baseline); without it the search starts at the baseline. It
    reuses [p.analysis]'s masking when the vector counts agree.
    [odc_report] additionally seeds the optimizer's ODC downsizing
    stage ({!Sertopt.Optimizer.config.odc_obs}) with the report's
    observability bounds, cut at [req.odc_threshold]. [budget] bounds
    the search; without it [req.budget_evals] caps the evaluations. *)

val odc : Request.t -> prepared -> (Ser_odc.Odc.t, Ser_util.Diag.t) result
(** Observability-don't-care discovery ({!Ser_odc.Odc.analyze}) driven
    by the request's [odc_mode]/[vectors]/[odc_seed]. Backend-free: the
    prepared library is not used. *)

val backend_view :
  backend_result ->
  Ser_netlist.Circuit.t
  * float array
  * float array
  * float array
  * Ser_sta.Timing.t
  * float
(** The surface both backends share: [(circuit, per-gate
    unreliability, generated glitch widths, signal probabilities, STA
    pass, total)]. Under serpp the per-gate values are its estimate. *)

val analyze_payload :
  Request.t -> prepared -> backend_result -> Ser_util.Json.t
(** [cmd], [backend], [circuit], [gates], [inputs], [outputs],
    [critical_delay_ps], [total_unreliability], [vectors], [charge] and
    [top]: the request's [top] gates with the largest positive [U_i],
    value-descending with ties in ascending id order. Each row holds
    [gate], [kind], [cell], [u], [w_gen_ps], [share], [delay_ps],
    [slack_ps], [signal_probability], plus [max_path_probability] under
    ASERTA (serpp has no [P_ij]). *)

val optimize_payload : Request.t -> Sertopt.Optimizer.result -> Ser_util.Json.t
(** [cmd], [circuit], [gates], [vectors], the [baseline] and
    [optimized] metrics ([unreliability], [delay_ps], [energy_fj],
    [area]), the three cost ratios, [unreliability_reduction],
    [evals], [degraded], the improving [cost_trace] and the
    {!Sertopt.Optimizer.knob_summary} fields under [knobs]. *)

val execute :
  ?budget:Ser_util.Budget.t ->
  Request.t ->
  prepared ->
  (Ser_util.Json.t, Ser_util.Diag.t) result
(** Execute any op and render its payload: the one op executor behind
    every front end. [budget] bounds the optimize search; no other op
    reads it. *)

val run :
  ?budget:Ser_util.Budget.t ->
  Request.t ->
  (Ser_util.Json.t, Ser_util.Diag.t) result
(** {!prepare} then {!execute} — the whole body of a batch/serve
    worker. *)
