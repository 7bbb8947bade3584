(** Deterministic pseudo-random number generation.

    Every stochastic component of the library (random input vectors,
    synthetic circuit generation, SERTOPT's random search directions)
    draws from this module with an explicit seed, so experiments are
    bit-reproducible across runs and OCaml versions.

    The generator is xoshiro256** seeded through splitmix64, the
    combination recommended by Blackman and Vigna. *)

type t
(** A mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed via splitmix64
    expansion. Equal seeds give equal streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Useful to give each sub-experiment its own stream. *)

val stream : t -> int -> t
(** [stream t i] derives the [i]-th substream of [t]: a pure,
    index-keyed function of the current state of [t] (which is {e not}
    advanced). [stream t i = stream t i] bitwise, and distinct indices
    give statistically independent streams — this is the primitive
    parallel consumers use to give every work unit (Monte-Carlo batch,
    chunk, scenario) its own reproducible generator regardless of how
    work is scheduled over domains, instead of hand-rolling seed
    arithmetic. Requires [i >= 0]. *)

val copy : t -> t
(** Snapshot of the current state. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [0, bound). Uses 53 random bits. *)

val uniform : t -> float
(** [uniform t] is uniform in [0, 1). *)

val range : t -> float -> float -> float
(** [range t lo hi] is uniform in [lo, hi). *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val gaussian : t -> float
(** Standard normal deviate (Box–Muller, with caching of the spare). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val choose_weighted : t -> ('a * float) array -> 'a
(** [choose_weighted t items] picks an element with probability
    proportional to its non-negative weight. Requires a positive total
    weight. *)
