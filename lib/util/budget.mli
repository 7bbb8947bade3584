(** Evaluation and wall-clock budgets with graceful degradation.

    A budget is threaded through the expensive loops (direction search,
    greedy and ODC menu refinement). Loops call {!tick} per objective
    evaluation and poll {!exhausted}; when it fires they stop and
    return their best-so-far incumbent instead of hanging or raising.
    Results computed under an exhausted budget are flagged [degraded]
    by their producers.

    Elapsed time is measured on the monotonic clock ({!Mono.now}), so
    deadlines are immune to system clock adjustments during long
    runs. *)

type t

val create : ?max_evals:int -> ?max_seconds:float -> unit -> t
(** Omitted limits are unlimited. The (monotonic) clock starts at
    creation. Raises [Invalid_argument] on negative limits. *)

val tick : t -> unit
(** Record one objective evaluation. *)

val evals : t -> int

val elapsed : t -> float
(** Seconds since creation. *)

val exhausted : t -> bool
(** True once either limit is hit; latches (never un-exhausts). *)

val was_exhausted : t -> bool
(** The latched flag, without re-checking the clock. *)

val cancel : t -> unit
(** Latch the budget as exhausted immediately (e.g. from a
    SIGINT/SIGTERM handler): every loop polling {!exhausted} stops at
    its next check and returns its best-so-far incumbent. Safe to call
    from a signal handler (two atomic stores, no allocation). *)

val was_cancelled : t -> bool
(** True iff {!cancel} fired (as opposed to a limit being hit). *)

val diag : t -> Diag.t
(** A [Warning]-severity diagnostic describing which limit fired. *)
