(** The [sertool serve] daemon: a crash-contained persistent analysis
    service.

    One single-threaded event loop owns the sockets, the admission
    queue, the {!Cache}, an {!Lru} pool of warm
    {!Ser_cli.Handlers.prepared} values and the idempotency replay
    window; heavy work runs either inline (every op but odc on a pooled
    prepared value) or isolated in a {!Ser_jobs.Supervisor} worker
    process (optimize, and anything with [isolate = true]), so a
    crashing or hanging evaluation kills one child, never the daemon.

    Robustness contract, in protocol terms:

    - {e admission control}: at most [max_queue] requests wait; one
      beyond that is answered [overloaded] immediately — deterministic
      load shedding, not a growing backlog;
    - {e deadlines}: a request carrying [deadline_s] (or the daemon
      default) is answered [deadline_exceeded] if it expires while
      queued; inline optimize work degrades via {!Ser_util.Budget},
      isolated work is killed by the supervisor watchdog;
    - {e crash containment}: worker death by signal, hang or garbage
      output becomes a typed [worker_failed] response;
    - {e idempotency}: a request [id] that already produced a
      non-retryable response is answered from a replay window of the
      128 most recent such ids without re-execution
      ([replayed = true]);
    - {e graceful drain}: SIGTERM/SIGINT latch a drain — listeners
      close, queued requests finish, new ones get [shutting_down], the
      cache is flushed, the socket path is unlinked;
    - {e client failures are data}: EOF, EPIPE and malformed frames on
      one connection are counted and contained, never fatal.

    [health]/[stats] requests bypass the queue entirely and report
    queue depth, the process-wide [serve.*] request counters, cache
    hit rate, warm-pool state, p50/p99 service latency,
    [jobs.journal_fsync_us] quantiles and the per-domain memory
    high-water gauges. Isolated workers run
    [Sys.executable_name worker --req-file SPOOL]. *)

type addr = Unix_sock of string | Tcp of string * int

val addr_to_string : addr -> string
(** [unix:PATH] or [tcp:HOST:PORT]. *)

val sockaddr : addr -> Unix.sockaddr
(** Resolve an address (a TCP host by name if it is not a literal
    IP); the listener and {!Client} dial the same socket address. *)

type config = {
  addrs : addr list;
  max_queue : int;  (** admission-queue bound (>= 1) *)
  max_frame : int;  (** request frame size limit, bytes *)
  default_deadline_s : float option;
      (** applied to requests that carry no [deadline_s] *)
  cache_entries : int;
  cache_dir : string option;  (** persistence directory; [None] = memory only *)
  cache_writer : (string -> string -> unit) option;
      (** fault-injection hook forwarded to {!Cache.create} *)
  pool_entries : int;  (** warm prepared values kept *)
  make_worker :
    (Ser_cli.Request.t -> spool:string -> Ser_jobs.Supervisor.job) option;
      (** test hook replacing the worker command line; the request JSON
          is already spooled at [spool] *)
  worker_timeout_s : float;  (** isolated-attempt watchdog *)
  worker_retries : int;
  spool_dir : string option;
      (** where request spool files and per-request journals go;
          default: the system temp directory *)
  isolate_optimize : bool;  (** default [true]: optimize runs isolated *)
  verbose : bool;  (** one stderr line per lifecycle event *)
}

val default : socket:string -> config
(** Unix socket only; queue 16, 16 MiB frames, no default deadline,
    256 cache entries (memory only), 4 pooled prepared values, worker
    watchdog 120 s with 1 retry. *)

val run :
  ?on_ready:(unit -> unit) ->
  ?stop:(unit -> bool) ->
  config ->
  (unit, Ser_util.Diag.t) result
(** Bind, call [on_ready], serve until SIGTERM/SIGINT (or [stop ()],
    polled each loop iteration) latches the drain, then finish the
    queue, flush the cache and clean up. [Error] only for startup
    failures (unbindable socket, ...) — a running daemon does not exit
    on per-request failures. *)
