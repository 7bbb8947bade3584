(** The canonical request record shared by every front end.

    One-shot CLI commands ([sertool analyze/optimize/rate]), the batch
    worker and the serve daemon all execute the same three operations;
    historically each re-parsed its own flags and re-assembled its own
    parameter set. A {!t} is the single source of truth: the CLI builds
    one from cmdliner flags, the daemon decodes one from a framed JSON
    request, the worker reads one back from a spool file — and all of
    them hand it to {!Handlers}.

    The JSON codec is total ({!of_json} never raises) and the
    {!params_json} rendering is canonical (fixed field order, per-op
    field subset), which is what makes it usable as a cache-key
    component. *)

type source =
  | Spec of string
      (** benchmark name ([c17], ...) or a path on the local disk *)
  | Inline_bench of string
      (** .bench netlist text carried inside the request — how serve
          clients ship circuits the daemon cannot see on its own
          filesystem *)

type op = Analyze | Optimize | Rate | Odc

val op_to_string : op -> string
val op_of_string : string -> op option

type t = {
  id : string option;
      (** idempotency key: the daemon replays the stored response for a
          repeated id instead of re-executing *)
  op : op;
  source : source;
  backend : string;
      (** SER estimator for analyze: ["aserta"] (Monte-Carlo expected
          widths, the default) or ["serpp"] (single-pass
          propagation-probability profiles, {!Ser_serpp.Serpp}). Part
          of {!params_json}, so cached analyze results are keyed per
          backend. Rejected for the rate op, which needs ASERTA's
          per-output width tables. *)
  vectors : int;  (** random vectors for [P_ij] *)
  charge : float;  (** injected charge, fC (analyze) *)
  top : int;  (** softest gates / contributors listed in the payload *)
  vdds : float list;  (** supply menu; [] = library default axis *)
  vths : float list;  (** threshold menu; [] = default axis *)
  evals : int;  (** nullspace-search cost evaluations (optimize) *)
  greedy : int;  (** greedy refinement passes (optimize) *)
  eval_tier : string;
      (** optimize greedy-menu economy: ["exact"] measures every menu
          candidate (default); ["serpp"] ranks each menu with the cheap
          propagation-probability estimate and measures only the top
          [tier_k] exactly ({!Sertopt.Optimizer.tier}). Part of
          {!params_json}. *)
  tier_k : int;  (** exact evaluations kept per menu when tiered *)
  budget_evals : int option;  (** hard eval cap (optimize) *)
  clock : float option;  (** clock period, ps (rate) *)
  q_slope : float;  (** charge-collection slope, fC (rate) *)
  deadline_s : float option;  (** per-request deadline (serve) *)
  isolate : bool option;
      (** serve: [Some true] forces worker isolation, [Some false]
          forbids it; [None] = the daemon's per-op default *)
  fault : string option;
      (** test-only fault injection, forwarded to the worker exactly
          like a batch manifest's [fault=] field *)
  odc_mode : string;
      (** odc: ["exhaustive"] (sampled screen + per-site
          support-limited exhaustive proofs, the default) or
          ["sampled"] (screen only) — {!Ser_odc.Odc.mode} *)
  odc_seed : int;  (** odc: RNG seed for the sampled screen *)
  odc_threshold : float;
      (** odc: observability cutoff reported as the low-observability
          site count and consumed by the optimizer's ODC-seeded
          downsizing; in [0, 1] *)
}

val default_vectors : op -> int
(** 10 000 for analyze, 4 000 for optimize, rate and odc — the
    historical per-command CLI defaults. *)

val make :
  ?id:string ->
  ?backend:string ->
  ?vectors:int ->
  ?charge:float ->
  ?top:int ->
  ?vdds:float list ->
  ?vths:float list ->
  ?evals:int ->
  ?greedy:int ->
  ?eval_tier:string ->
  ?tier_k:int ->
  ?budget_evals:int ->
  ?clock:float ->
  ?q_slope:float ->
  ?deadline_s:float ->
  ?isolate:bool ->
  ?fault:string ->
  ?odc_mode:string ->
  ?odc_seed:int ->
  ?odc_threshold:float ->
  op ->
  source ->
  t
(** Omitted fields take the per-op defaults ([default_vectors],
    backend aserta, 16 fC, top 10, evals 120, greedy 2, eval tier
    exact with k 6, q-slope 6, odc mode exhaustive with seed 1 and
    threshold 0.05). The result is range-checked exactly like
    {!of_json} (e.g. [tier_k >= 1], [vectors >= 1]); a bad value raises
    [Ser_util.Diag.Diag_error] with subsystem ["cli"]. *)

val to_json : t -> Ser_util.Json.t

val of_json : Ser_util.Json.t -> (t, Ser_util.Diag.t) result
(** Total decoder with validation: unknown op, missing/ill-typed
    circuit, non-positive vectors/evals/charge come back as a located
    [Error] (subsystem ["cli"]), never an exception. Unknown fields
    are ignored. *)

val params_json : t -> Ser_util.Json.t
(** Canonical rendering of exactly the fields that determine the
    result payload for this op (excludes [id], [deadline_s],
    [isolate], [fault] and the circuit itself). Two requests with
    equal [params_json] and equal netlists produce identical payloads
    — the contract the serve result cache is keyed on. *)
