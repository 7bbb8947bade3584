(** Piecewise-linear voltage waveforms (SPICE "PWL" sources). *)

type t
(** Immutable waveform: sorted (time, value) breakpoints; constant
    extrapolation before the first and after the last. *)

val dc : float -> t
(** Constant waveform. *)

val pwl : (float * float) list -> t
(** Breakpoints must have strictly increasing times. Raises
    [Invalid_argument] otherwise or on the empty list. *)

val step : ?t0:float -> ?ramp:float -> from:float -> to_:float -> unit -> t
(** Transition starting at [t0] (default 0) lasting [ramp] (default
    1 ps, 0%-to-100%). *)

val triangle : ?t0:float -> base:float -> peak:float -> width:float -> unit -> t
(** Symmetric triangular pulse: starts at [base] at [t0], reaches
    [peak] at [t0 + width/2], back to [base] at [t0 + width]. The
    full-width-at-half-maximum is [width/2]; use {!glitch} for a pulse
    specified by its half-amplitude width. *)

val glitch : ?t0:float -> base:float -> peak:float -> half_width:float -> unit -> t
(** Triangular pulse whose width measured at half amplitude is
    [half_width] (the paper's glitch-duration convention). *)

val eval : t -> float -> float
(** Value at a time. *)
