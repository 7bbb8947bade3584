(** The paper's Eq. 5 cost:

    {v C = W1 U/U0 + W2 T/T0 + W3 E/E0 + W4 A/A0 v}

    normalised against the baseline circuit, plus an optional hard-ish
    penalty when the delay ratio exceeds the allowed slack (the paper
    notes the finite library can make timing "exceed slightly"; the
    penalty keeps that slight). *)

type weights = {
  w_unrel : float;
  w_delay : float;
  w_energy : float;
  w_area : float;
}

val default_weights : weights
(** 1.0 / 0.2 / 0.15 / 0.1 — unreliability-dominated, as in Table 1. *)

type metrics = {
  unreliability : float; (** ASERTA U, or spectrum FIT (see {!objective}) *)
  delay : float;         (** critical path, ps *)
  energy : float;        (** per cycle, fJ *)
  area : float;
}

type objective =
  | Fixed_charge
      (** the paper's formulation: U at one injected charge *)
  | Charge_spectrum of Aserta.Ser_rate.spectrum
      (** optimize the FIT integral over a particle charge spectrum
          instead (extension; see {!Aserta.Ser_rate}) *)

val measure :
  config:Aserta.Analysis.config ->
  masking:Aserta.Analysis.masking ->
  ?objective:objective ->
  ?clock_period:float ->
  Ser_cell.Library.t ->
  Ser_sta.Assignment.t ->
  metrics * Aserta.Analysis.t
(** Full metric set for an assignment from scratch (one ASERTA
    electrical pass, one STA, closed-form energy/area): the reference
    the optimizer measures its baseline and its result with, and which
    its incremental engine reproduces bit for bit for every candidate.
    With [Charge_spectrum] the unreliability field carries
    {!Aserta.Ser_rate.t}[.total]; [clock_period] then fixes the latching
    window so that candidates with different delays are compared under
    the same clock. *)

val eval : ?weights:weights -> baseline:metrics -> metrics -> float
(** Eq. 5 against the baseline ([weights] default
    {!default_weights}). A fractional delay increase above 0.05 is
    penalised. *)

val ratios : baseline:metrics -> metrics -> metrics
(** Component-wise ratios (the Area/Energy/Delay columns of Table 1). *)
