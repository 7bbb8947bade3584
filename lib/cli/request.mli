(** The canonical request record shared by every front end.

    One-shot CLI commands ([sertool analyze/optimize/rate/odc]), the
    batch worker and the serve daemon all execute the same four ops;
    historically each re-parsed its own flags and re-assembled its own
    parameter set. A {!t} is the single source of truth: the CLI builds
    one from cmdliner flags ({!Flags}), the daemon decodes one from a
    framed JSON request, the worker reads one back from a spool file —
    and all of them hand it to {!Handlers}. Each field is declared once
    in the implementation (JSON member, flag name, value type, doc);
    the JSON codec, {!params_json} and {!Flags} all derive from that
    declaration.

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

(** Test-only fault injection, executed by the worker process (and,
    for [Sleep_ms] only, inline by the serve daemon). *)
type fault =
  | Hang  (** sleep forever: the watchdog's case *)
  | Crash  (** die by SIGSEGV *)
  | Oom  (** die by SIGKILL, standing in for the OOM killer *)
  | Garbage  (** print something that is not the worker protocol *)
  | Exit of int  (** exit with this code, no output *)
  | Flaky of int  (** crash on attempts below N, succeed afterwards *)
  | Sleep_ms of float  (** delay, then run normally *)

val fault_of_string : string -> (fault, string) result
(** The string form shared by JSON requests, manifest [fault=] fields
    and the client's [--fault]: [hang], [crash], [oom], [garbage],
    [exit:N], [flaky:N] or [sleep:MS] (MS >= 0). Anything else, e.g.
    [exit:abc], is an [Error] naming the accepted forms. *)

val fault_to_string : fault -> string
(** Inverse of {!fault_of_string}. *)

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
  fault : fault option;
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

val defaults : op -> source -> t
(** The request every front end starts from; the only place a default
    value is written: 10 000 vectors for analyze and 4 000 otherwise,
    backend aserta, 16 fC, top 10, evals 120, greedy 2, eval tier
    exact with k 6, q-slope 6, odc mode exhaustive with seed 1 and
    threshold 0.05, and no id, budget, clock, deadline, isolation
    preference or fault. Front ends override fields by record update
    and then {!validate}. *)

val menu_axes : vdds:float list -> vths:float list -> Ser_cell.Library.axes
(** Default axes restricted to the given VDD/Vth menus ([] keeps the
    default axis). *)

val validate : t -> (t, Ser_util.Diag.t) result
(** Range checks shared by every front end (e.g. [tier_k >= 1],
    [vectors >= 1], backend/op compatibility, a VDD/Vth menu whose
    nominal corner exists); failures are located diagnostics with
    subsystem ["cli"]. *)

val to_json : t -> Ser_util.Json.t

val of_json : Ser_util.Json.t -> (t, Ser_util.Diag.t) result
(** Total decoder with validation: unknown op, missing/ill-typed
    circuit, non-positive vectors/evals/charge come back as a located
    [Error] (subsystem ["cli"]), never an exception. Unknown fields
    are ignored. Absent fields take their {!defaults}. *)

val of_file : string -> (t, Ser_util.Diag.t) result
(** {!of_json} of a whole file (a spooled request); unreadable or
    malformed files are [Error]s naming the file. *)

val to_file : string -> t -> (unit, Ser_util.Diag.t) result
(** Spool {!to_json} to a file, for {!of_file} in a worker process. *)

val params_json : t -> Ser_util.Json.t
(** Canonical rendering of exactly the fields that determine the
    result payload for this op (excludes [id], [deadline_s],
    [isolate], [fault] and the circuit itself). Two requests with
    equal [params_json] and equal netlists produce identical payloads
    — the contract the serve result cache is keyed on. *)

(** Command-line flags, derived from the same per-field declarations as
    the JSON codec: each field's flag name, converter and doc are
    written once. Every term yields an override to apply to
    {!defaults}; front ends then call {!validate}. *)
module Flags : sig
  val one_shot : op -> (t -> t) Cmdliner.Term.t
  (** The flags of [sertool analyze], [optimize], [rate] or [odc]:
      absent values are {!defaults}', so with no flags the override is
      the identity. *)

  val client : (t -> t) Cmdliner.Term.t
  (** Every request field as an optional flag, for [sertool client]:
      an absent flag keeps the op's default. *)

  val batch : (source -> t) Cmdliner.Term.t
  (** [sertool batch run]'s [--cmd], [--vectors] (2000) and [--evals]
      (60): the request of one manifest job, with one greedy pass. *)

  val axes : (t -> t) Cmdliner.Term.t
  (** Just [--vdds]/[--vths], for commands that build a library
      without running a request op. *)
end
