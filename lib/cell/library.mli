(** The discrete standard-cell library SERTOPT assigns from: every
    combination of gate kind, fan-in, size, channel length, VDD and Vth
    on configurable axes, with electrical characterisation served from
    memoised look-up tables.

    Two characterisation backends are available:

    - [Analytic]: the closed forms of {!Ser_device.Gate_model};
      instantaneous, used for optimization loops.
    - [Transient]: measured on the {!Ser_spice} simulator over a grid
      and interpolated with {!Ser_table.Lut} — exactly the paper's
      "SPICE look-up tables" flow. Slower to warm up, cached per
      variant thereafter.

    Hot loops hold compiled per-variant kernels instead of querying
    the library: {!kernel} for timing and {!glitch_kernel} for the
    generated glitch width; the per-query functions ({!delay},
    {!output_ramp}, {!generated_glitch_width}) are thin wrappers over
    them, so each formula exists once.

    Geometry-derived quantities (pin capacitance, area, leakage,
    switching energy) are closed-form in both backends. *)

type backend = Analytic | Transient

type axes = {
  sizes : float list;
  lengths : float list;
  vdds : float list;
  vths : float list;
}

val default_axes : axes
(** Sizes {1, 2, 4, 8}; lengths {70, 100, 150, 250, 300} nm (the
    paper's set); VDDs {0.8, 1.0, 1.2} V; Vths {0.1, 0.2, 0.3} V. *)

val restrict :
  ?sizes:float list ->
  ?lengths:float list ->
  ?vdds:float list ->
  ?vths:float list ->
  axes ->
  axes
(** Replace selected axes (used to reproduce the per-circuit VDD/Vth
    menus of Table 1). *)

type t

val create : ?backend:backend -> ?axes:axes -> unit -> t
(** A fresh library with empty caches. *)

val backend : t -> backend
val axes : t -> axes

val variants : t -> Ser_netlist.Gate.kind -> int -> Ser_device.Cell_params.t list
(** All library cells of one logic function, in a deterministic order.
    Raises [Invalid_argument] for [Input]. *)

val nominal : t -> Ser_netlist.Gate.kind -> int -> Ser_device.Cell_params.t
(** The baseline corner: size and length minimal in the axes, VDD
    closest to 1.0, Vth closest to 0.2. *)

val nominal_vdd : axes -> float
(** The VDD {!nominal} picks: the one on the (non-empty) axis closest
    to 1.0. Its Vth comes from the axis values below it. *)

(** {1 Geometry (backend-independent)} *)

val input_cap : t -> Ser_device.Cell_params.t -> float
val output_cap : t -> Ser_device.Cell_params.t -> float
val area : t -> Ser_device.Cell_params.t -> float
val leakage_power : t -> Ser_device.Cell_params.t -> float
val switching_energy : t -> Ser_device.Cell_params.t -> cload:float -> float

(** {1 Characterised electricals} *)

val delay : t -> Ser_device.Cell_params.t -> input_ramp:float -> cload:float -> float
val output_ramp : t -> Ser_device.Cell_params.t -> input_ramp:float -> cload:float -> float

type kernel
(** One variant's timing model, ready to evaluate: the compiled closed
    form ({!Ser_device.Gate_model.compile}) on the analytic backend,
    the variant's two look-up tables (characterised on first use,
    fetched once under the library lock) on the transient backend.
    Immutable; hold one per gate or per menu entry instead of paying
    the model derivation or the table lookup on every query. *)

val kernel : t -> Ser_device.Cell_params.t -> kernel

val kernel_timing :
  kernel -> input_ramp:float -> cload:float -> float array -> unit
(** Write the delay into [out.(0)] and the output ramp into [out.(1)]
    (no tuple per evaluation), bit-identical to {!delay} and
    {!output_ramp}. *)

type glitch
(** One variant's glitch model, ready to evaluate: the compiled closed
    form ({!Ser_device.Gate_model.compile_glitch}) on the analytic
    backend, the variant's two glitch look-up tables (characterised on
    first use, fetched once under the library lock) on the transient
    backend. Kept apart from {!kernel} so that timing-only users never
    characterise glitch tables. Immutable; hold one per gate. *)

val glitch_kernel : t -> Ser_device.Cell_params.t -> glitch

val glitch_width :
  glitch -> node_cap:float -> charge:float -> output_low:bool -> float
(** Width of the strike-generated glitch; [node_cap] is the {e total}
    capacitance at the struck node (junctions + fan-out pins + wire),
    of which the variant's own output capacitance is a part. *)

val generated_glitch_width :
  t ->
  Ser_device.Cell_params.t ->
  node_cap:float ->
  charge:float ->
  output_low:bool ->
  float
(** {!glitch_width} of the variant's {!glitch_kernel}. *)

val warm_cache_size : t -> int
(** Number of memoised characterisation tables (for tests/diagnostics). *)

(** {1 Characterisation health} *)

val diagnostics : t -> Ser_util.Diag.t list
(** Warnings accumulated while warming transient tables: one per grid
    point whose simulation needed numerical intervention (retry,
    fallback, rail overshoot). Empty for the analytic backend. *)

val flagged_points : t -> int
(** Count of such points. A non-finite measurement additionally falls
    back to the analytic model, so tables never contain NaN. *)
