module Json = Ser_util.Json
module Diag = Ser_util.Diag
module Mono = Ser_util.Mono

let subsystem = "serve"

type opts = {
  connect_timeout_s : float;
  request_timeout_s : float;
  retries : int;
}

let default_opts =
  { connect_timeout_s = 5.; request_timeout_s = 300.; retries = 5 }

(* retry [attempt + 1] waits 0.1 s doubling, at most 2 s *)
let backoff attempt = Float.min 2. (0.1 *. (2. ** float_of_int attempt))

let connect opts addr =
  let sa = Server.sockaddr addr in
  let fd =
    Unix.socket ~cloexec:true (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0
  in
  let deadline = Mono.now () +. opts.connect_timeout_s in
  let rec go () =
    match Unix.connect fd sa with
    | () -> Ok fd
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      if Mono.now () > deadline then Error "connect timed out" else go ()
    | exception Unix.Unix_error (e, _, _) ->
      Error (Unix.error_message e)
  in
  match go () with
  | Ok fd -> Ok fd
  | Error msg ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error msg

type conn = {
  c_addr : Server.addr;
  c_opts : opts;
  mutable c_fd : Unix.file_descr option;
}

let conn ?(opts = default_opts) addr = { c_addr = addr; c_opts = opts; c_fd = None }

let conn_close c =
  match c.c_fd with
  | None -> ()
  | Some fd ->
    c.c_fd <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ())

let conn_fd c =
  match c.c_fd with
  | Some fd -> Ok fd
  | None ->
    Result.map
      (fun fd ->
        c.c_fd <- Some fd;
        fd)
      (connect c.c_opts c.c_addr)

(* A write into a connection the daemon has closed (it restarted since
   the last exchange) must come back as EPIPE, not kill the process. *)
let write_ignoring_sigpipe fd request =
  let old = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigpipe old)
    (fun () -> Frame.write_frame fd request)

(* One exchange over the connection's fd. Any transport failure — EPIPE
   on write into a dead server, EOF or garbage on read — poisons the
   fd: responses could otherwise desynchronise from requests, so the
   only safe reaction is to drop the connection and dial fresh. *)
let exchange c request =
  match conn_fd c with
  | Error msg -> Error (`Transport msg)
  | Ok fd -> (
    let fail r =
      conn_close c;
      r
    in
    match write_ignoring_sigpipe fd request with
    | Error e -> fail (Error (`Transport (Frame.error_to_string e)))
    | Ok () -> (
      let deadline = Mono.now () +. c.c_opts.request_timeout_s in
      match Frame.read_frame ~deadline fd with
      | Error Frame.Timeout -> fail (Error (`Timeout c.c_opts.request_timeout_s))
      | Error e -> fail (Error (`Transport (Frame.error_to_string e)))
      | Ok json -> (
        match Wire.response_of_json json with
        | Ok r -> Ok r (* the connection stays open for the next call *)
        | Error msg -> fail (Error (`Transport ("bad envelope: " ^ msg))))))

(* A first failure on a kept-alive fd is most often a stale connection
   (the daemon restarted since the last exchange), which [exchange]
   already turned into a fresh dial on the next attempt. Timeouts are
   not retried: the request may still be executing server-side, and
   re-running it is only idempotent when it carries an id. *)
let conn_call ?(retry_rejected = false) c request =
  let rec go attempt last =
    if attempt > c.c_opts.retries then
      Error
        (Diag.make ~subsystem
           ~context:[ ("attempts", string_of_int attempt) ]
           (Printf.sprintf "request failed after %d attempt(s): %s" attempt
              last))
    else begin
      if attempt > 0 then Unix.sleepf (backoff (attempt - 1));
      match exchange c request with
      | Ok { Wire.r_status = Wire.Rejected (reject, msg, _); _ }
        when retry_rejected && Wire.retryable reject ->
        go (attempt + 1)
          (Printf.sprintf "%s: %s" (Wire.reject_to_string reject) msg)
      | Ok r -> Ok r
      | Error (`Timeout s) ->
        Error
          (Diag.make ~subsystem (Printf.sprintf "no response within %.1fs" s))
      | Error (`Transport msg) -> go (attempt + 1) msg
    end
  in
  go 0 "never attempted"

let call ?opts addr request =
  let c = conn ?opts addr in
  Fun.protect ~finally:(fun () -> conn_close c) (fun () -> conn_call c request)

let health ?(opts = default_opts) addr =
  let probe_opts = { opts with retries = 0 } in
  match call ~opts:probe_opts addr (Json.Obj [ ("op", Json.Str "health") ]) with
  | Error d -> Error d
  | Ok r -> (
    match r.Wire.r_status with
    | Wire.Ok_payload p -> Ok p
    | Wire.Rejected (reject, msg, _) ->
      Error
        (Diag.make ~subsystem
           (Printf.sprintf "health rejected (%s): %s"
              (Wire.reject_to_string reject) msg)))

let wait_ready ?(opts = default_opts) ?(timeout_s = 10.) addr =
  let deadline = Mono.now () +. timeout_s in
  let rec go () =
    match health ~opts addr with
    | Ok _ -> true
    | Error _ ->
      if Mono.now () > deadline then false
      else begin
        Unix.sleepf 0.05;
        go ()
      end
  in
  go ()
