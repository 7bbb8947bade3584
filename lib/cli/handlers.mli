(** Execution of canonical {!Request} records — the shared back half of
    the one-shot CLI commands, the batch worker and the serve daemon.

    Each operation returns its full result records and has a
    [_payload] rendering: the op's one output document. [sertool
    analyze --json] and [optimize --json] write it, the CLI text for
    analyze, optimize and rate prints its numbers from it, and the
    worker protocol and the serve response carry it. Payloads contain
    no timestamps or elapsed times, so an identical request on an
    identical build renders bit-identically — the property the serve
    result cache and journal resume rely on. *)

val load_circuit : Request.source -> Ser_netlist.Circuit.t
(** The one canonical netlist loader: a [Spec] that names an existing
    file parses it (.v as Verilog, anything else as .bench), a known
    benchmark name generates it, an [Inline_bench] parses the carried
    text. Raises [Ser_util.Diag.Diag_error] (or [Failure] for an
    unknown name) — call under {!Ser_util.Diag.guard} or {!run}. *)

val make_library :
  vdds:float list -> vths:float list -> Ser_cell.Library.t
(** Default axes restricted to the given VDD/Vth menus ([] keeps the
    default axis). *)

val library_id : Ser_cell.Library.t -> string
(** Canonical one-line rendering of the library's axes — the "library"
    component of serve cache keys. Two libraries built by
    {!make_library} with equal menus have equal ids. *)

val aserta_config : Request.t -> Aserta.Analysis.config

type backend_result =
  | Aserta of Aserta.Analysis.t
      (** Monte-Carlo expected-width analysis (the paper's method) *)
  | Serpp of Ser_serpp.Serpp.t
      (** single-pass propagation-probability estimate *)

type analyzed = {
  assignment : Ser_sta.Assignment.t;
  result : backend_result;  (** per {!Request.t.backend} *)
}

type rated = {
  r_assignment : Ser_sta.Assignment.t;
  r_analysis : Aserta.Analysis.t;
  r_rate : Aserta.Ser_rate.t;
}

val analyze :
  ?odc_report:Ser_odc.Odc.t -> Request.t -> (analyzed, Ser_util.Diag.t) result
(** Size-for-speed baseline assignment + checked SER analysis with the
    requested backend (ASERTA by default, serpp when
    [req.backend = "serpp"]). The analyze payload has the same keys
    for both backends but [max_path_probability] — per-gate [u] means
    the serpp estimate under the serpp backend — plus a ["backend"]
    field naming which estimator produced it.

    [odc_report] (ASERTA backend only; rejected for serpp) skips the
    provably-masked fault sites of the report during the Monte-Carlo
    [P_ij] pass — bit-identical totals, [aserta.odc_pruned] counts the
    skipped sites. The report's digest must match the loaded netlist. *)

val optimize :
  ?budget:Ser_util.Budget.t ->
  ?initial:(Ser_sta.Assignment.t -> Ser_sta.Assignment.t) ->
  ?odc_report:Ser_odc.Odc.t ->
  Request.t ->
  (Sertopt.Optimizer.result, Ser_util.Diag.t) result
(** [initial] is called once with the sized-for-speed baseline and
    returns the incumbent to start from (a checkpoint restored onto
    that baseline); without it the search starts at the baseline.
    [odc_report] additionally seeds the optimizer's ODC downsizing
    stage ({!Sertopt.Optimizer.config.odc_obs}) with the report's
    observability bounds, cut at [req.odc_threshold]. *)

val rate : Request.t -> (rated, Ser_util.Diag.t) result

val odc : Request.t -> (Ser_odc.Odc.t, Ser_util.Diag.t) result
(** Observability-don't-care discovery ({!Ser_odc.Odc.analyze}) driven
    by the request's [odc_mode]/[vectors]/[odc_seed]. Backend-free: no
    library is built and the VDD/Vth axes are ignored. *)

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

val analyze_payload : Request.t -> analyzed -> Ser_util.Json.t
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

val rate_payload : Request.t -> rated -> Ser_util.Json.t

val odc_payload : Request.t -> Ser_odc.Odc.t -> Ser_util.Json.t
(** Summary counts plus the full report document under ["report"] — a
    client can extract that member, save it, and feed it back to
    [analyze --odc] / [optimize --odc] unchanged. *)

val run :
  ?budget:Ser_util.Budget.t ->
  Request.t ->
  (Ser_util.Json.t, Ser_util.Diag.t) result
(** Execute any request from scratch and render its payload — the
    whole body of a batch/serve worker. [budget] bounds the optimize
    search (analyze and rate check it only between phases). *)
