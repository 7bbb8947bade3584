module Json = Ser_util.Json
module Diag = Ser_util.Diag
module Mono = Ser_util.Mono
module Budget = Ser_util.Budget
module Obs = Ser_obs.Obs
module Request = Ser_cli.Request
module Handlers = Ser_cli.Handlers
module Supervisor = Ser_jobs.Supervisor
module Journal = Ser_jobs.Journal

let subsystem = "serve"

type addr = Unix_sock of string | Tcp of string * int

type config = {
  addrs : addr list;
  max_queue : int;
  max_frame : int;
  default_deadline_s : float option;
  cache_entries : int;
  cache_dir : string option;
  cache_writer : (string -> string -> unit) option;
  pool_entries : int;
  replay_entries : int;
  worker_exe : string option;
  make_worker :
    (Ser_cli.Request.t -> spool:string -> Ser_jobs.Supervisor.job) option;
  worker_timeout_s : float;
  worker_retries : int;
  spool_dir : string option;
  isolate_optimize : bool;
  verbose : bool;
}

let default ~socket =
  {
    addrs = [ Unix_sock socket ];
    max_queue = 16;
    max_frame = Frame.default_max_frame;
    default_deadline_s = None;
    cache_entries = 256;
    cache_dir = None;
    cache_writer = None;
    pool_entries = 4;
    replay_entries = 128;
    worker_exe = None;
    make_worker = None;
    worker_timeout_s = 120.;
    worker_retries = 1;
    spool_dir = None;
    isolate_optimize = true;
    verbose = false;
  }

(* ------------------------------ metrics ---------------------------- *)

let m_requests = Obs.Metrics.counter "serve.requests"
let m_completed = Obs.Metrics.counter "serve.completed"
let m_shed = Obs.Metrics.counter "serve.shed_overload"
let m_expired = Obs.Metrics.counter "serve.deadline_expired"
let m_replayed = Obs.Metrics.counter "serve.replayed"
let m_bad = Obs.Metrics.counter "serve.bad_requests"
let m_worker_failed = Obs.Metrics.counter "serve.worker_failures"
let m_disconnects = Obs.Metrics.counter "serve.client_disconnects"
let m_latency = Obs.Metrics.histogram "serve.latency_us"
let h_fsync = Obs.Metrics.histogram "jobs.journal_fsync_us"

(* ------------------------------- state ----------------------------- *)

type conn = {
  c_fd : Unix.file_descr;
  c_peer : string;
  mutable c_data : string;  (* undecoded stream prefix *)
  mutable c_alive : bool;
}

type pending = {
  p_req : Request.t;
  p_conn : conn;
  p_arrival : float;
  p_deadline : float option;  (* absolute Mono instant *)
}

type replay_slot = { r_response : Json.t; mutable r_gen : int }

type state = {
  cfg : config;
  started : float;
  cache : Cache.t;
  pool : Pool.t;
  queue : pending Queue.t;
  replay : (string, replay_slot) Hashtbl.t;
  mutable replay_clock : int;
  mutable conns : conn list;
  mutable listeners : (Unix.file_descr * addr) list;
  mutable spool_seq : int;
  (* stats mirrored into the obs registry; kept locally too so the
     health endpoint needs no registry scan *)
  mutable received : int;
  mutable completed : int;
  mutable shed : int;
  mutable expired : int;
  mutable replayed : int;
  mutable bad_requests : int;
  mutable worker_failures : int;
  mutable disconnects : int;
  mutable abandoned : int;
}

let logf st fmt =
  Printf.ksprintf
    (fun s -> if st.cfg.verbose then Printf.eprintf "[serve] %s\n%!" s)
    fmt

(* ----------------------------- responses --------------------------- *)

let close_conn st conn =
  if conn.c_alive then begin
    conn.c_alive <- false;
    (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
    st.conns <- List.filter (fun c -> c != conn) st.conns
  end

let respond st conn json =
  if conn.c_alive then
    match Frame.write_frame conn.c_fd json with
    | Ok () -> ()
    | Error e ->
      (* client went away mid-response: contained, counted *)
      st.disconnects <- st.disconnects + 1;
      Obs.Metrics.incr m_disconnects;
      logf st "client %s lost while responding: %s" conn.c_peer
        (Frame.error_to_string e);
      close_conn st conn

let remember st (req : Request.t) response =
  match req.Request.id with
  | None -> ()
  | Some id ->
    let retryable =
      match Json.member "error" response with
      | Some (Json.Str e) -> (
        match Wire.reject_of_string e with
        | Some r -> Wire.retryable r
        | None -> true)
      | _ -> false
    in
    (* only non-retryable outcomes are pinned: a client retrying an
       [overloaded] or [worker_failed] id expects re-execution *)
    if not retryable then begin
      st.replay_clock <- st.replay_clock + 1;
      Hashtbl.replace st.replay id
        { r_response = response; r_gen = st.replay_clock };
      while Hashtbl.length st.replay > st.cfg.replay_entries do
        let victim =
          Hashtbl.fold
            (fun k s acc ->
              match acc with
              | Some (_, g) when g <= s.r_gen -> acc
              | _ -> Some (k, s.r_gen))
            st.replay None
        in
        match victim with
        | Some (k, _) -> Hashtbl.remove st.replay k
        | None -> ()
      done
    end

let replay_find st (req : Request.t) =
  match req.Request.id with
  | None -> None
  | Some id -> (
    match Hashtbl.find_opt st.replay id with
    | None -> None
    | Some slot ->
      st.replay_clock <- st.replay_clock + 1;
      slot.r_gen <- st.replay_clock;
      (* re-mark the stored envelope as a replay *)
      let json =
        match slot.r_response with
        | Json.Obj fields ->
          Json.Obj
            (List.map
               (fun (k, v) ->
                 if k = "replayed" then (k, Json.Bool true) else (k, v))
               fields)
        | j -> j
      in
      Some json)

(* ------------------------------ health ----------------------------- *)

let quantiles_json h =
  Json.Obj
    [
      ("count", Json.int (Obs.Metrics.histogram_count h));
      ("p50_us", Json.Num (Obs.Metrics.histogram_quantile h 0.5));
      ("p99_us", Json.Num (Obs.Metrics.histogram_quantile h 0.99));
    ]

let mem_gauges_json () =
  match Json.member "gauges" (Obs.Metrics.snapshot ()) with
  | Some (Json.Obj gs) ->
    Json.Obj
      (List.filter
         (fun (name, _) -> String.length name >= 4 && String.sub name 0 4 = "mem.")
         gs)
  | _ -> Json.Obj []

let health_payload st ~draining =
  Json.Obj
    [
      ("cmd", Json.Str "health");
      ("status", Json.Str (if draining then "draining" else "ok"));
      ("pid", Json.int (Unix.getpid ()));
      ("uptime_s", Json.Num (Mono.now () -. st.started));
      ("queue_depth", Json.int (Queue.length st.queue));
      ("max_queue", Json.int st.cfg.max_queue);
      ( "requests",
        Json.Obj
          [
            ("received", Json.int st.received);
            ("completed", Json.int st.completed);
            ("shed_overload", Json.int st.shed);
            ("deadline_expired", Json.int st.expired);
            ("replayed", Json.int st.replayed);
            ("bad_requests", Json.int st.bad_requests);
            ("worker_failures", Json.int st.worker_failures);
            ("client_disconnects", Json.int st.disconnects);
            ("abandoned", Json.int st.abandoned);
          ] );
      ("cache", Cache.stats_json st.cache);
      ("pool", Pool.stats_json st.pool);
      ("latency_us", quantiles_json m_latency);
      ("journal_fsync_us", quantiles_json h_fsync);
      ("mem", mem_gauges_json ());
    ]

(* ----------------------------- execution --------------------------- *)

let diagf fmt = Printf.ksprintf (fun m -> Diag.make ~subsystem m) fmt

(* Inline fault injection is limited to sleeping: every destructive
   fault class must go through an isolated worker, where dying is the
   worker's problem, not the daemon's. *)
let inline_fault_ok = function
  | None -> Ok None
  | Some (Request.Sleep_ms ms) -> Ok (Some (ms /. 1000.))
  | Some f ->
    Error
      (diagf "fault %S requires an isolated worker (set \"isolate\": true)"
         (Request.fault_to_string f))

let pool_params (req : Request.t) =
  Json.Obj
    [
      ("vectors", Json.int req.Request.vectors);
      ("charge", Json.Num req.Request.charge);
    ]

(* The one executor with the warm pool as its ASERTA source: a pooled
   handle answers analyze/rate through a snapshot, and every other op
   runs exactly as a one-shot command does. *)
let run_inline st (req : Request.t) (p : Handlers.prepared) ~pool_key
    ~deadline_left =
  let warm = ref false in
  let aserta config =
    let entry, was_warm =
      Pool.warm st.pool ~key:pool_key ~build:(fun () ->
          let asg, a = Handlers.baseline_analysis p config in
          {
            Pool.e_assignment = asg;
            e_incr = Ser_incr.Incr.of_analysis p.Handlers.library asg a;
          })
    in
    warm := was_warm;
    (entry.Pool.e_assignment, Ser_incr.Incr.snapshot entry.Pool.e_incr)
  in
  (* the deadline bounds an inline optimize's search *)
  let budget =
    Option.map
      (fun seconds ->
        Budget.create ?max_evals:req.Request.budget_evals ~max_seconds:seconds
          ())
      deadline_left
  in
  Result.map
    (fun payload -> (payload, !warm))
    (Handlers.execute ?budget ~aserta req p)

let reject_of_worker (o : Supervisor.outcome) =
  let p = o.Supervisor.o_payload in
  let member_str name =
    match Json.member name p with Some (Json.Str s) -> Some s | _ -> None
  in
  match (o.Supervisor.o_status, member_str "message") with
  | Supervisor.Job_failed, Some msg ->
    (* the worker reported a structured diagnostic: a malformed request
       is the client's fault, anything else is the evaluation's *)
    let reject =
      match member_str "subsystem" with
      | Some ("cli" | "netlist") -> Wire.Bad_request
      | _ -> Wire.Worker_failed
    in
    (reject, Diag.make ~subsystem msg)
  | _, _ ->
    let detail =
      match (member_str "class", member_str "detail") with
      | Some c, Some d -> Printf.sprintf "%s: %s" c d
      | Some c, None -> c
      | _ -> "isolated evaluation failed"
    in
    ( Wire.Worker_failed,
      Diag.make ~subsystem
        ~context:[ ("attempts", string_of_int o.Supervisor.o_attempts) ]
        (Printf.sprintf "worker did not produce a result (%s)" detail) )

let run_isolated st (req : Request.t) ~deadline_left =
  let dir =
    match st.cfg.spool_dir with
    | Some d ->
      (try Unix.mkdir d 0o755
       with Unix.Unix_error (Unix.EEXIST, _, _) | Unix.Unix_error _ -> ());
      d
    | None -> Filename.get_temp_dir_name ()
  in
  st.spool_seq <- st.spool_seq + 1;
  let base =
    Filename.concat dir
      (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) st.spool_seq)
  in
  let spool = base ^ ".req.json" in
  let jpath = base ^ ".journal" in
  let cleanup () =
    List.iter
      (fun p -> try Sys.remove p with Sys_error _ -> ())
      [ spool; jpath ]
  in
  match Request.to_file spool req with
  | Error d ->
    cleanup ();
    Error (Wire.Internal, d)
  | Ok () -> (
    let job =
      match st.cfg.make_worker with
      | Some f -> f req ~spool
      | None ->
        let exe =
          Option.value st.cfg.worker_exe ~default:Sys.executable_name
        in
        Supervisor.job ~id:"req"
          [| exe; "worker"; "--req-file"; spool |]
    in
    let timeout_s =
      match deadline_left with
      | Some left -> Float.min st.cfg.worker_timeout_s (Float.max 0.05 left)
      | None -> st.cfg.worker_timeout_s
    in
    let scfg =
      {
        Supervisor.default_config with
        Supervisor.parallel = 1;
        timeout_s;
        retries = st.cfg.worker_retries;
        backoff_base_s = 0.05;
        backoff_max_s = 0.5;
      }
    in
    match Journal.create jpath with
    | Error d ->
      cleanup ();
      Error (Wire.Internal, d)
    | Ok journal -> (
      let result = Supervisor.run scfg ~journal [ job ] in
      Journal.close journal;
      cleanup ();
      match result with
      | Error d -> Error (Wire.Internal, d)
      | Ok summary -> (
        match summary.Supervisor.outcomes with
        | [ o ] when o.Supervisor.o_status = Supervisor.Job_ok ->
          Ok o.Supervisor.o_payload
        | [ o ] -> Error (reject_of_worker o)
        | _ ->
          Error
            ( Wire.Internal,
              Diag.make ~subsystem "supervisor returned no outcome" ))))

(* Persist after every insert: a SIGKILLed daemon restarts with every
   completed result still warm (the write is atomic tmp+rename, so a
   kill mid-flush leaves the previous file intact). *)
let cache_store st ckey payload =
  Cache.add st.cache ckey payload;
  List.iter (fun d -> logf st "flush: %s" (Diag.to_string d))
    (Cache.flush st.cache)

let execute st (p : pending) =
  let req = p.p_req in
  let t0 = Mono.now () in
  let deadline_left =
    Option.map (fun d -> Float.max 0.01 (d -. t0)) p.p_deadline
  in
  let envelope =
    match Handlers.prepare req with
    | Error d ->
      st.bad_requests <- st.bad_requests + 1;
      Obs.Metrics.incr m_bad;
      Wire.error ~id:req.Request.id Wire.Bad_request d
    | Ok prepared -> (
      let digest = Cache.circuit_digest prepared.Handlers.circuit in
      let lib_id = Handlers.library_id prepared.Handlers.library in
      let ckey =
        Cache.key ~circuit:digest ~library:lib_id
          ~params:(Request.params_json req)
      in
      let cacheable =
        req.Request.fault = None
        && (req.Request.op <> Request.Optimize
           || req.Request.deadline_s = None)
      in
      match (if cacheable then Cache.find st.cache ckey else None) with
      | Some payload ->
        Wire.ok ~cache_hit:true ~id:req.Request.id
          ~elapsed_s:(Mono.now () -. t0) payload
      | None -> (
        let isolate =
          match req.Request.isolate with
          | Some b -> b
          | None ->
            req.Request.op = Request.Optimize && st.cfg.isolate_optimize
        in
        if isolate then
          match run_isolated st req ~deadline_left with
          | Ok payload ->
            if cacheable then cache_store st ckey payload;
            Wire.ok ~id:req.Request.id ~elapsed_s:(Mono.now () -. t0)
              payload
          | Error (reject, d) ->
            if reject = Wire.Worker_failed then begin
              st.worker_failures <- st.worker_failures + 1;
              Obs.Metrics.incr m_worker_failed
            end
            else if reject = Wire.Bad_request then begin
              st.bad_requests <- st.bad_requests + 1;
              Obs.Metrics.incr m_bad
            end;
            Wire.error ~id:req.Request.id reject d
        else
          match inline_fault_ok req.Request.fault with
          | Error d ->
            st.bad_requests <- st.bad_requests + 1;
            Obs.Metrics.incr m_bad;
            Wire.error ~id:req.Request.id Wire.Bad_request d
          | Ok sleep -> (
            Option.iter Unix.sleepf sleep;
            let pool_key =
              Cache.key ~circuit:digest ~library:lib_id
                ~params:(pool_params req)
            in
            match run_inline st req prepared ~pool_key ~deadline_left with
            | Ok (payload, warm) ->
              if cacheable then cache_store st ckey payload;
              Wire.ok ~warm ~id:req.Request.id
                ~elapsed_s:(Mono.now () -. t0) payload
            | Error d ->
              Wire.error ~id:req.Request.id Wire.Internal d)))
  in
  st.completed <- st.completed + 1;
  Obs.Metrics.incr m_completed;
  Obs.Metrics.observe m_latency (int_of_float (1e6 *. (Mono.now () -. t0)));
  Obs.memory_probe ();
  remember st req envelope;
  envelope

(* ----------------------------- admission --------------------------- *)

let request_id_of_json j =
  match Json.member "id" j with Some (Json.Str s) -> Some s | _ -> None

let handle_payload st ~draining conn payload =
  match Json.of_string payload with
  | Error msg ->
    st.bad_requests <- st.bad_requests + 1;
    Obs.Metrics.incr m_bad;
    respond st conn
      (Wire.error ~id:None Wire.Bad_request
         (diagf "%s" (Frame.error_to_string (Frame.Bad_json msg))))
  | Ok j -> (
    match Json.member "op" j with
    | Some (Json.Str ("health" | "stats")) ->
      respond st conn
        (Wire.ok ~id:(request_id_of_json j) ~elapsed_s:0.
           (health_payload st ~draining))
    | _ -> (
      st.received <- st.received + 1;
      Obs.Metrics.incr m_requests;
      match Request.of_json j with
      | Error d ->
        st.bad_requests <- st.bad_requests + 1;
        Obs.Metrics.incr m_bad;
        respond st conn (Wire.error ~id:(request_id_of_json j) Wire.Bad_request d)
      | Ok req -> (
        match replay_find st req with
        | Some stored ->
          st.replayed <- st.replayed + 1;
          Obs.Metrics.incr m_replayed;
          respond st conn stored
        | None ->
          if draining then
            respond st conn
              (Wire.error ~id:req.Request.id Wire.Shutting_down
                 (diagf "daemon is draining"))
          else if Queue.length st.queue >= st.cfg.max_queue then begin
            st.shed <- st.shed + 1;
            Obs.Metrics.incr m_shed;
            respond st conn
              (Wire.error ~id:req.Request.id Wire.Overloaded
                 (diagf "admission queue full (%d queued)"
                    (Queue.length st.queue)))
          end
          else
            let arrival = Mono.now () in
            let deadline =
              match
                (req.Request.deadline_s, st.cfg.default_deadline_s)
              with
              | Some d, _ | None, Some d -> Some (arrival +. d)
              | None, None -> None
            in
            Queue.add
              { p_req = req; p_conn = conn; p_arrival = arrival;
                p_deadline = deadline }
              st.queue)))

let drain_frames st ~draining conn =
  let continue = ref conn.c_alive in
  while !continue do
    match Frame.decode ~max:st.cfg.max_frame conn.c_data with
    | Frame.Incomplete -> continue := false
    | Frame.Invalid e ->
      (* the stream cannot be resynchronised: answer and hang up *)
      st.bad_requests <- st.bad_requests + 1;
      Obs.Metrics.incr m_bad;
      respond st conn
        (Wire.error ~id:None Wire.Bad_request
           (diagf "%s" (Frame.error_to_string e)));
      close_conn st conn;
      continue := false
    | Frame.Complete { payload; consumed } ->
      conn.c_data <-
        String.sub conn.c_data consumed
          (String.length conn.c_data - consumed);
      handle_payload st ~draining conn payload;
      if not conn.c_alive then continue := false
  done

let read_conn st ~draining conn =
  let buf = Bytes.create 65536 in
  match Unix.read conn.c_fd buf 0 (Bytes.length buf) with
  | 0 ->
    if String.length conn.c_data > 0 then begin
      st.disconnects <- st.disconnects + 1;
      Obs.Metrics.incr m_disconnects
    end;
    logf st "client %s disconnected" conn.c_peer;
    close_conn st conn
  | n ->
    conn.c_data <- conn.c_data ^ Bytes.sub_string buf 0 n;
    drain_frames st ~draining conn
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
    ()
  | exception Unix.Unix_error _ ->
    st.disconnects <- st.disconnects + 1;
    Obs.Metrics.incr m_disconnects;
    close_conn st conn

(* ------------------------------ sockets ---------------------------- *)

let addr_to_string = function
  | Unix_sock p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

let bind_listener addr =
  Diag.guard ~subsystem (fun () ->
      try
        match addr with
        | Unix_sock path ->
          if Sys.file_exists path then Sys.remove path;
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.bind fd (Unix.ADDR_UNIX path);
          Unix.listen fd 64;
          Unix.set_nonblock fd;
          fd
        | Tcp (host, port) ->
          let ip =
            try Unix.inet_addr_of_string host
            with Failure _ ->
              (Unix.gethostbyname host).Unix.h_addr_list.(0)
          in
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.setsockopt fd Unix.SO_REUSEADDR true;
          Unix.bind fd (Unix.ADDR_INET (ip, port));
          Unix.listen fd 64;
          Unix.set_nonblock fd;
          fd
      with Unix.Unix_error (e, fn, arg) ->
        failwith
          (Printf.sprintf "cannot bind %s: %s(%s): %s" (addr_to_string addr)
             fn arg (Unix.error_message e)))

let accept_all st lfd =
  let continue = ref true in
  while !continue do
    match Unix.accept ~cloexec:true lfd with
    | fd, peer ->
      let peer =
        match peer with
        | Unix.ADDR_UNIX _ -> "unix"
        | Unix.ADDR_INET (ip, port) ->
          Printf.sprintf "%s:%d" (Unix.string_of_inet_addr ip) port
      in
      let conn = { c_fd = fd; c_peer = peer; c_data = ""; c_alive = true } in
      st.conns <- conn :: st.conns;
      logf st "accepted %s" peer
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
      continue := false
    | exception Unix.Unix_error _ -> continue := false
  done

(* ------------------------------ main loop -------------------------- *)

let run ?on_ready ?(stop = fun () -> false) cfg =
  let drain_flag = Atomic.make false in
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let latch = Sys.Signal_handle (fun _ -> Atomic.set drain_flag true) in
  let old_term = Sys.signal Sys.sigterm latch in
  let old_int = Sys.signal Sys.sigint latch in
  let restore () =
    Sys.set_signal Sys.sigpipe old_pipe;
    Sys.set_signal Sys.sigterm old_term;
    Sys.set_signal Sys.sigint old_int
  in
  let rec bind_all acc = function
    | [] -> Ok (List.rev acc)
    | a :: rest -> (
      match bind_listener a with
      | Ok fd -> bind_all ((fd, a) :: acc) rest
      | Error d ->
        List.iter (fun (fd, _) -> try Unix.close fd with _ -> ()) acc;
        Error d)
  in
  match bind_all [] cfg.addrs with
  | Error d ->
    restore ();
    Error d
  | Ok listeners ->
    let cache, cache_diags =
      Cache.create ~max_entries:cfg.cache_entries ?dir:cfg.cache_dir
        ?writer:cfg.cache_writer ()
    in
    let st =
      {
        cfg;
        started = Mono.now ();
        cache;
        pool = Pool.create ~max_entries:cfg.pool_entries ();
        queue = Queue.create ();
        replay = Hashtbl.create 64;
        replay_clock = 0;
        conns = [];
        listeners;
        spool_seq = 0;
        received = 0;
        completed = 0;
        shed = 0;
        expired = 0;
        replayed = 0;
        bad_requests = 0;
        worker_failures = 0;
        disconnects = 0;
        abandoned = 0;
      }
    in
    List.iter (fun d -> logf st "cache: %s" (Diag.to_string d)) cache_diags;
    List.iter
      (fun (_, a) -> logf st "listening on %s" (addr_to_string a))
      listeners;
    (match on_ready with Some f -> f () | None -> ());
    let draining = ref false in
    let finished = ref false in
    while not !finished do
      if (Atomic.get drain_flag || stop ()) && not !draining then begin
        draining := true;
        logf st "draining: %d queued request(s)" (Queue.length st.queue);
        List.iter
          (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
          st.listeners;
        st.listeners <- []
      end;
      if !draining && Queue.is_empty st.queue then finished := true
      else begin
        let fds =
          List.map fst st.listeners
          @ List.map (fun c -> c.c_fd) st.conns
        in
        let timeout = if Queue.is_empty st.queue then 0.2 else 0. in
        let readable =
          match Unix.select fds [] [] timeout with
          | r, _, _ -> r
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
          | exception Unix.Unix_error (Unix.EBADF, _, _) -> []
        in
        List.iter
          (fun fd ->
            match List.assoc_opt fd st.listeners with
            | Some _ -> accept_all st fd
            | None -> (
              match List.find_opt (fun c -> c.c_fd = fd) st.conns with
              | Some conn -> read_conn st ~draining:!draining conn
              | None -> ()))
          readable;
        match Queue.take_opt st.queue with
        | None -> ()
        | Some p ->
          if not p.p_conn.c_alive then begin
            (* client hung up while queued: drop the work *)
            st.abandoned <- st.abandoned + 1;
            logf st "dropping request from dead client"
          end
          else if
            match p.p_deadline with
            | Some d -> Mono.now () > d
            | None -> false
          then begin
            st.expired <- st.expired + 1;
            Obs.Metrics.incr m_expired;
            respond st p.p_conn
              (Wire.error ~id:p.p_req.Request.id Wire.Deadline_exceeded
                 (diagf "deadline expired after %.3fs in queue"
                    (Mono.now () -. p.p_arrival)))
          end
          else begin
            logf st "executing %s"
              (Request.op_to_string p.p_req.Request.op);
            let envelope = execute st p in
            respond st p.p_conn envelope
          end
      end
    done;
    (* drain epilogue: flush, hang up, clean the filesystem *)
    let flush_diags = Cache.flush st.cache in
    List.iter (fun d -> logf st "flush: %s" (Diag.to_string d)) flush_diags;
    List.iter (fun c -> close_conn st c) st.conns;
    List.iter
      (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
      st.listeners;
    List.iter
      (function
        | Unix_sock path -> (
          try Sys.remove path with Sys_error _ -> ())
        | Tcp _ -> ())
      cfg.addrs;
    logf st "drained cleanly (%d completed, %d shed, %d worker failures)"
      st.completed st.shed st.worker_failures;
    restore ();
    Ok ()
