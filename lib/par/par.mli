(** Deterministic multicore execution runtime.

    A fixed-size pool of OCaml domains, created once and shared
    process-wide, with chunked work scheduling over index ranges and
    arrays. The design contract is {e determinism}: every primitive
    produces bit-identical results regardless of the worker count,
    because

    - each index of a {!parallel_for}/{!parallel_map} writes only its
      own slot,
    - {!parallel_reduce} combines per-chunk accumulators in ascending
      chunk order (an {e ordered} reduction), with a default chunking
      that depends only on the problem size — never on the number of
      workers, and
    - stochastic consumers derive one independent RNG stream per work
      unit with {!Ser_rng.Rng.stream} instead of sharing a sequential
      generator.

    Integration with the resilience layer:

    - an exception raised by a worker is captured, the section is
      drained (no domain leaks; the pool stays usable), and the failure
      is re-raised in the caller as a located
      {!Ser_util.Diag.Diag_error} carrying the chunk that failed;
    - when a {!Ser_util.Budget.t} is supplied, it is polled at chunk
      boundaries: once it expires no further chunks start, the section
      returns what was completed, and the caller can degrade gracefully
      ({!Ser_util.Budget.was_exhausted} tells it the result is
      partial).

    Nested parallelism is safe: a parallel primitive invoked from
    inside a running section (or from a second domain while a section
    is active) falls back to sequential execution in the calling domain
    instead of deadlocking on the shared pool. *)

val set_jobs : int -> unit
(** [set_jobs n] fixes the worker count for subsequent parallel
    sections. [0] means autodetect via
    [Domain.recommended_domain_count]; [1] disables parallelism (no
    domains are ever spawned); [n > 1] uses [n] domains in total (the
    caller participates, so [n - 1] are spawned). An existing pool of a
    different size is torn down and respawned lazily. Raises
    [Invalid_argument] on negative [n]. *)

val jobs : unit -> int
(** The effective worker count: the last {!set_jobs} value, else the
    [SERTOOL_JOBS] environment variable, else autodetect. Always
    >= 1. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()], >= 1. *)

val shutdown : unit -> unit
(** Join all pool domains. Safe to call repeatedly; the pool respawns
    lazily on the next parallel section. Registered [at_exit]. *)

val parallel_chunks :
  ?budget:Ser_util.Budget.t ->
  ?chunk:int ->
  n:int ->
  (slot:int -> lo:int -> hi:int -> unit) ->
  unit
(** Lowest-level primitive: split [0 .. n-1] into chunks of [chunk]
    indices (default: a function of [n] only) and run
    [body ~slot ~lo ~hi] for each claimed chunk [\[lo, hi)].

    [slot] identifies the executing participant, [0 <= slot < jobs ()]
    with slot 0 the calling domain; use it to index pre-allocated
    scratch whose {e content} does not influence results. Bodies of
    distinct chunks run concurrently and must write only chunk-owned
    state.

    With [budget], expiry stops further chunks from starting (completed
    chunks keep their effects). A body exception halts the section and
    is re-raised as a located [Diag] error once every in-flight chunk
    has drained. *)

val parallel_for :
  ?budget:Ser_util.Budget.t -> ?chunk:int -> n:int -> (int -> unit) -> unit
(** [parallel_for ~n f] runs [f i] for [i = 0 .. n-1]. Each iteration
    must touch only iteration-owned state. With [budget], iterations in
    chunks after expiry are skipped. *)

val parallel_map : ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** Like [Array.map], element-independent and order-preserving. *)

val parallel_mapi : ?chunk:int -> (int -> 'a -> 'b) -> 'a array -> 'b array

val parallel_reduce :
  ?budget:Ser_util.Budget.t ->
  ?chunk:int ->
  n:int ->
  init:'acc ->
  map:(lo:int -> hi:int -> 'acc) ->
  combine:('acc -> 'acc -> 'acc) ->
  unit ->
  'acc
(** Ordered chunked reduction: [map ~lo ~hi] produces one accumulator
    per chunk, and the results are folded with [combine] in ascending
    chunk order — floating-point reductions are therefore bit-identical
    for any worker count (for a fixed [chunk]; the default chunking
    depends only on [n]). With [budget], chunks skipped after expiry
    contribute nothing. *)

(** {1 Instrumentation}

    Every section adds to cumulative counters in the
    {!Ser_obs.Obs.Metrics} registry (reset them with
    [Obs.Metrics.reset ~prefix:"par." ()]):

    - [par.sections]: parallel sections executed on the pool;
    - [par.sequential_sections]: sections that ran inline (jobs = 1,
      nested, or pool busy);
    - [par.chunks]: chunks executed; [par.stolen_chunks]: of which
      claimed by spawned workers (slot > 0) rather than the caller;
    - [par.section_chunks]: histogram of chunks per section;
    - gauges [par.busy_s.slot<i>]: busy seconds inside sections per
      slot, slot 0 = caller, registered densely from slot 0. *)
