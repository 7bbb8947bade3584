(** Physical units used across the library.

    All quantities are plain [float]s carried in a fixed, documented unit
    system chosen so that typical 70 nm-class numbers are of order one:

    - time: picoseconds (ps)
    - voltage: volts (V)
    - capacitance: femtofarads (fF)
    - charge: femtocoulombs (fC)
    - current: fC/ps, which is numerically equal to milliamperes (mA)
    - energy: femtojoules (fJ)
    - length: nanometers (nm)
    - area: squares of a minimum-size device (dimensionless)

    The type aliases below are documentation only; they do not provide
    static unit checking but make interfaces self-describing. *)

type ps = float
(** Time in picoseconds. *)

type volt = float
(** Voltage in volts. *)

type ff = float
(** Capacitance in femtofarads. *)

type fc = float
(** Charge in femtocoulombs. *)

type ma = float
(** Current in fC/ps = mA. *)

type fj = float
(** Energy in femtojoules. *)

type nm = float
(** Length in nanometers. *)

val fs_of_ps : ps -> float
(** [fs_of_ps t] converts picoseconds to femtoseconds. *)

val ns_of_ps : ps -> float
(** [ns_of_ps t] converts picoseconds to nanoseconds. *)

val pf_of_ff : ff -> float
(** [pf_of_ff c] converts femtofarads to picofarads. *)

val ua_of_ma : ma -> float
(** [ua_of_ma i] converts mA to microamperes. *)
