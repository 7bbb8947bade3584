(** Client side of the serve protocol: frame a request, read its
    response — over a kept-alive connection, with timeouts and
    exponential-backoff retry.

    Retry policy: connect-phase failures (socket absent, connection
    refused — a daemon still starting or restarting) and transport
    failures before a response arrives are retried, waiting 0.1 s
    before the first retry and doubling up to 2 s. A decoded response
    is returned as-is, even a typed rejection, unless the caller asks
    for retryable rejections ([overloaded], [shutting_down], ...) to
    consume the retry budget too — safe for batch-style callers
    because request ids make re-execution idempotent. *)

type opts = {
  connect_timeout_s : float;
  request_timeout_s : float;  (** waiting for the response frame *)
  retries : int;  (** additional attempts after the first *)
}

val default_opts : opts
(** 5 s connect, 300 s request, 5 retries. *)

(** {1 Connections}

    The framing protocol permits many request/response exchanges per
    connection (the daemon keeps a connection open after responding);
    a [conn] keeps the socket alive across calls so a sweep of
    requests pays one dial, not N. *)

type conn
(** A kept-alive client connection. Not thread-safe: one domain per
    conn. The socket is dialed lazily on the first call. *)

val conn : ?opts:opts -> Server.addr -> conn

val conn_call :
  ?retry_rejected:bool ->
  conn ->
  Ser_util.Json.t ->
  (Wire.response, Ser_util.Diag.t) result
(** One exchange with transparent reconnect-and-retry: any transport
    failure (stale fd after a daemon restart, EPIPE, EOF
    mid-response) drops the socket and retries on a fresh dial under
    the backoff budget. With [retry_rejected] (default [false]) a
    retryable rejection is retried too. Timeouts are surfaced, not
    retried — the request may still be executing server-side. *)

val conn_close : conn -> unit
(** Close the socket (if open). The conn may be reused afterwards; the
    next call dials again. *)

val call :
  ?opts:opts ->
  Server.addr ->
  Ser_util.Json.t ->
  (Wire.response, Ser_util.Diag.t) result
(** A single-use {!conn}: dial, {!conn_call}, close. *)

val wait_ready :
  ?opts:opts -> ?timeout_s:float -> Server.addr -> bool
(** Poll the health endpoint until the daemon answers (true) or
    [timeout_s] (default 10 s) elapses (false). *)

val health :
  ?opts:opts -> Server.addr -> (Ser_util.Json.t, Ser_util.Diag.t) result
(** The health payload of a responding daemon. *)
