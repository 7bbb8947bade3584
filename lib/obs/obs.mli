(** Observability: tracing spans, metrics and export plumbing for every
    hot path.

    The subsystem has three parts:

    - {!Trace}: nestable spans recorded into per-domain ring buffers and
      exported as a Chrome trace-event JSON document (load it in
      [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}).
      Disabled by default; a probe on the disabled path costs one atomic
      load + branch and allocates nothing.
    - {!Metrics}: a process-wide registry of named counters, gauges and
      log-scale histograms. Counter/histogram updates are single atomic
      read-modify-writes with no allocation; they are always on (the
      [--metrics] flag only controls whether a snapshot is written).
    - file export with an injectable writer, so write failures (ENOSPC,
      EPERM, ...) degrade to an [Error Diag.t] instead of aborting the
      analysis that produced the data.

    All entry points are safe to call from any domain. *)

module Metrics : sig
  type counter
  type gauge
  type histogram

  val counter : string -> counter
  (** Get or create the counter registered under [name]. Registration
      takes a mutex — hoist the handle out of hot loops. *)

  val incr : counter -> unit
  val add : counter -> int -> unit

  val value : counter -> int

  val gauge : string -> gauge
  (** Get or create a float gauge. [set_gauge]/[add_gauge] allocate one
      float box per call — fine at section/run granularity, not inside
      per-gate loops. *)

  val set_gauge : gauge -> float -> unit

  val add_gauge : gauge -> float -> unit
  (** Atomic accumulate (CAS loop). *)

  val max_gauge : gauge -> float -> unit
  (** Atomic running maximum (CAS loop): the gauge keeps the largest
      value ever offered — high-water marks. *)

  val gauge_value : gauge -> float

  val histogram : string -> histogram
  (** Get or create a log-scale histogram over non-negative integer
      observations. Bucket [k >= 1] counts values in
      [[2{^k-1}, 2{^k})]; bucket 0 counts values [<= 0]. *)

  val observe : histogram -> int -> unit
  (** Record one observation: two atomic increments and one atomic add,
      no allocation. *)

  val histogram_count : histogram -> int
  val histogram_sum : histogram -> int

  val histogram_quantile : histogram -> float -> float
  (** [histogram_quantile h q] is the lower bound of the log2 bucket
      holding the [q]-th fraction of the observations (0 on an empty
      histogram) — bucket-resolution p50/p99 for health endpoints. *)

  val find_counter : string -> counter option
  val find_gauge : string -> gauge option

  val snapshot : unit -> Ser_util.Json.t
  (** Point-in-time JSON snapshot:
      [{"counters": {..}, "gauges": {..}, "histograms": {..}}], every
      section sorted by metric name. Zero-valued metrics are included —
      a registered probe that never fired is information too. Taking a
      snapshot first sets the gauge [mem.minor_words] to the words the
      process has allocated on the minor heaps so far
      ([Gc.quick_stat], current as of each domain's last minor
      collection). *)

  val reset : ?prefix:string -> unit -> unit
  (** Zero every registered metric whose name starts with [prefix]
      (default: all). Handles stay registered and valid. *)
end

module Trace : sig
  val enabled : unit -> bool

  val set_enabled : bool -> unit
  (** Flip span recording on/off process-wide. Spans opened while
      enabled still close correctly after a disable. *)

  type span
  (** A token returned by {!start} and consumed by {!finish}. *)

  val set_sample_every : int -> unit
  (** Record only 1 of every [n] span openings (process-wide, across
      domains), so paper-scale runs fit the fixed ring buffers.
      Sampled-out spans cost one atomic fetch-add, return the inert
      token (their [finish] is a no-op, keeping B/E balanced) and are
      counted in the [trace.sampled_drops] metric. Values [<= 1]
      disable sampling (the default). *)

  val sample_every : unit -> int

  val start : string -> span
  (** Open a span named [name] on the calling domain. Disabled path:
      one atomic load, one branch, no allocation (the token is the name
      itself). Spans must close in LIFO order per domain; the empty
      name is reserved and never recorded. *)

  val finish : span -> unit

  val with_span : string -> (unit -> 'a) -> 'a
  (** [with_span name f] runs [f] inside a span; the span closes even
      if [f] raises. Prefer {!start}/{!finish} in per-chunk loops — the
      closure argument allocates before the enabled check. *)

  val instant : string -> unit
  (** A zero-duration marker event. *)

  val timestamp : unit -> float
  (** Monotonic now, for {!complete}. *)

  val complete : string -> since:float -> unit
  (** Record a completed interval [\[since, now\]] as a Chrome "X"
      event. Unlike {!start}/{!finish} pairs, complete events carry
      their own duration and may overlap freely — use them for
      lifecycles that interleave on one domain (e.g. supervisor
      jobs). *)

  val dropped : unit -> int
  (** Events discarded because a per-domain buffer filled up. *)

  val clear : unit -> unit
  (** Forget all recorded events (tests/bench only — racy against
      domains that are concurrently recording). *)

  val to_json : unit -> Ser_util.Json.t
  (** Export all buffers as a Chrome trace-event document. The export
      repairs torn streams so that B/E events are always balanced and
      properly nested per thread id: orphan "E" events are dropped and
      unclosed "B" spans get a synthetic close at the buffer's last
      timestamp. *)

  val merge_documents : (int * Ser_util.Json.t) list -> Ser_util.Json.t
  (** Fold per-worker trace documents into one multi-worker timeline:
      each [(shard, doc)] gets its thread ids moved into a per-shard
      band ([shard * 1000 + tid]) and its thread names prefixed
      ["shard<i>/"], so N shards' domains render side by side in
      Perfetto. Dropped-event counts are summed into [otherData]. *)

  type row = {
    row_name : string;
    row_count : int;
    row_total_us : float;  (** wall time inside spans of this name *)
    row_self_us : float;  (** total minus time in nested child spans *)
  }

  val tabulate : Ser_util.Json.t -> row list
  (** Fold an exported (or merged) trace document into a per-span-name
      self/total-time table, sorted by self time descending. "B"/"E"
      pairs are matched per (pid, tid) with a stack, so child time is
      subtracted from the parent's self time; "X" complete events are
      charged entirely to themselves. Unbalanced tails (orphan closes)
      are skipped, mirroring the exporter's repair rules. *)
end

val memory_probe : unit -> unit
(** Record the calling domain's major-heap size into the
    [mem.domain<i>.heap_words_hwm] high-water gauge. Called at coarse
    boundaries (parallel-section slots, served requests) — cheap, but
    not free: keep it out of per-gate loops. *)

type writer = string -> string -> unit
(** [writer path contents] persists a rendered document. The default
    writes the file; faultsim injects failing writers. *)

val write_trace : ?writer:writer -> string -> (unit, Ser_util.Diag.t) result
(** Render {!Trace.to_json} and hand it to [writer]. [Sys_error]s (and
    [Diag_error]s from injected writers) come back as [Error] with the
    target path in the diagnostic context; the in-memory data is left
    intact. *)

val write_metrics : ?writer:writer -> string -> (unit, Ser_util.Diag.t) result

val set_trace_file : string option -> unit
(** Arrange for {!flush} (and a process-exit hook, installed on first
    use) to write the trace there. [Some _] also enables tracing. *)

val set_metrics_file : string option -> unit

val trace_file : unit -> string option
val metrics_file : unit -> string option

val install_from_env : unit -> unit
(** Mirror the CLI flags through the environment: [SERTOOL_TRACE] and
    [SERTOOL_METRICS] name the trace/metrics output files, and
    [SERTOOL_TRACE_SAMPLE] sets {!Trace.set_sample_every} (ignored
    unless it parses as an integer [>= 1]). This is how batch workers
    inherit per-job observability from the supervisor. *)

val flush : ?writer:writer -> unit -> Ser_util.Diag.t list
(** Write whichever files are configured, now. Returns the
    diagnostics of the writes that failed (empty list = success);
    never raises, never touches the recorded data. *)
