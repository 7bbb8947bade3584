(** Closed-form electrical model of a CMOS gate instance.

    Every quantity the paper reads from its SPICE look-up tables has a
    fast analytic counterpart here: pin capacitance, propagation delay
    and output ramp versus (input ramp, load), leakage and switching
    energy, cell area, and the width of the voltage glitch generated by
    a charge strike on the output node. The transient simulator in
    {!Ser_spice} is the accurate (and slower) reference; the cell
    library can characterise against either backend.

    Internally a gate is reduced to one or two CMOS stages (AND = NAND +
    inverter, XOR counts as two heavier stages) whose pull networks are
    equivalent inverters obeying the alpha-power law.

    The timing model and the glitch model can each be compiled once per
    variant ({!compile}, {!compile_glitch}) and then only evaluated; the
    per-call functions compile and evaluate, so each formula exists
    once. *)

type stage = {
  n_stack : int; (** series depth of the NMOS network *)
  p_stack : int; (** series depth of the PMOS network *)
  n_fingers : int; (** parallel NMOS devices (fan-in of the stage) *)
  p_fingers : int;
  load_pins : float; (** equivalent inverter input-pin count presented to
                         the previous stage *)
}

val stages : Cell_params.t -> stage list
(** The 1- or 2-stage decomposition of the gate. *)

(** {1 Static quantities} *)

val input_cap : Cell_params.t -> float
(** Capacitance of one input pin, fF. *)

val output_cap : Cell_params.t -> float
(** Intrinsic (junction + local wire) capacitance at the output node,
    fF. *)

val area : Cell_params.t -> float
(** Layout area in units of a minimum inverter. Grows with size, fan-in
    and channel length. *)

val leakage_power : Cell_params.t -> float
(** Mean off-state power, mW (fJ/ps). *)

val switching_energy : Cell_params.t -> cload:float -> float
(** Energy per output transition into [cload] (fF), in fJ. *)

(** {1 Drive} *)

type direction = Pull_up | Pull_down

val drive_current : Cell_params.t -> direction -> float
(** Worst-case single-input saturation drive of the output stage, mA. *)

val drive_at : Cell_params.t -> direction -> vout:float -> float
(** Full I-V of the output stage's restoring network with inputs at the
    rails: current (mA) available to move the output node at voltage
    [vout] back toward its rail. Used by the transient simulator for
    strike recovery. *)

(** {1 Timing} *)

type compiled
(** A variant's timing model with every cell-dependent term evaluated:
    per-stage pull-down and pull-up drive currents, the output-node
    capacitance and the internal-node load. Immutable; safe to share
    across domains. *)

val compile : Cell_params.t -> compiled

val eval : compiled -> input_ramp:float -> cload:float -> float array -> unit
(** Write the compiled model's delay into [out.(0)] and its output ramp
    into [out.(1)], bit-identical to {!delay} and {!output_ramp} (which
    compile and evaluate per call). *)

val delay : Cell_params.t -> input_ramp:float -> cload:float -> float
(** Propagation delay (50% to 50%), ps. Worst case over rise/fall. *)

val output_ramp : Cell_params.t -> input_ramp:float -> cload:float -> float
(** 10%–90% output transition time, ps. *)

(** {1 Soft-error primitives} *)

val collected_charge_tau : float * float
(** [(tau_rise, tau_fall)] of the double-exponential strike current
    pulse, ps. Shared with {!Ser_spice}. *)

type glitch
(** A variant's glitch model with the cell-dependent terms evaluated:
    the supply and the restoring drive for each output state. Immutable;
    safe to share across domains. *)

val compile_glitch : Cell_params.t -> glitch

val glitch_width :
  glitch -> node_cap:float -> charge:float -> output_low:bool -> float
(** Closed-form width (ps, measured at VDD/2) of the glitch a strike of
    [charge] fC produces on the gate's output when the total node
    capacitance is [node_cap] fF. [output_low] selects the restoring
    network: a low output is held by the NMOS pull-down (strike injects
    charge, positive glitch), a high output by the PMOS pull-up (strike
    removes charge, negative glitch). Returns 0 when the glitch never
    reaches VDD/2. *)

val generated_glitch_width :
  Cell_params.t -> node_cap:float -> charge:float -> output_low:bool -> float
(** {!glitch_width} of the variant's {!compile_glitch} (compiles per
    call). *)

val critical_charge :
  Cell_params.t -> node_cap:float -> output_low:bool -> float
(** Smallest charge (fC) for which {!generated_glitch_width} is
    positive. *)
