module Budget = Ser_util.Budget
module Diag = Ser_util.Diag

(* True while the current domain is executing chunks of a section:
   workers always, the caller only inside a section. A parallel
   primitive that sees the flag set runs sequentially instead of
   touching the (already busy) pool. *)
let in_section : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* ------------------------------------------------------------------ *)
(* worker-count policy                                                 *)
(* ------------------------------------------------------------------ *)

let recommended_jobs () = max 1 (Domain.recommended_domain_count ())

let env_jobs () =
  match Sys.getenv_opt "SERTOOL_JOBS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 0 -> Some n
    | Some _ | None -> None)

let requested = ref None

let jobs () =
  let n =
    match !requested with
    | Some n -> n
    | None -> ( match env_jobs () with Some n -> n | None -> 0)
  in
  if n = 0 then recommended_jobs () else n

(* ------------------------------------------------------------------ *)
(* the domain pool                                                     *)
(* ------------------------------------------------------------------ *)

type pool = {
  n_workers : int;
  mutable job : (int -> unit) option; (* argument: slot index >= 1 *)
  mutable generation : int;
  mutable remaining : int; (* workers still inside the current job *)
  mutable stop : bool;
  m : Mutex.t;
  start : Condition.t;
  finished : Condition.t;
  mutable domains : unit Domain.t array;
}

let pool_ref = ref None

(* Held for the whole duration of a parallel section; also serialises
   pool creation/teardown against running sections. Sections acquire it
   with [try_lock] and fall back to sequential execution when busy. *)
let section_m = Mutex.create ()

let worker pool slot =
  Domain.DLS.set in_section true;
  let rec loop last_gen =
    Mutex.lock pool.m;
    while (not pool.stop) && pool.generation = last_gen do
      Condition.wait pool.start pool.m
    done;
    if pool.stop then Mutex.unlock pool.m
    else begin
      let gen = pool.generation in
      let job = pool.job in
      Mutex.unlock pool.m;
      (match job with
      | Some f -> ( try f slot with _ -> () (* jobs capture their own errors *))
      | None -> ());
      Mutex.lock pool.m;
      pool.remaining <- pool.remaining - 1;
      if pool.remaining = 0 then Condition.signal pool.finished;
      Mutex.unlock pool.m;
      loop gen
    end
  in
  loop 0

let teardown_pool_locked () =
  match !pool_ref with
  | None -> ()
  | Some p ->
    Mutex.lock p.m;
    p.stop <- true;
    Condition.broadcast p.start;
    Mutex.unlock p.m;
    Array.iter Domain.join p.domains;
    pool_ref := None

(* [slots] total participants, hence [slots - 1] spawned domains. *)
let ensure_pool_locked slots =
  (match !pool_ref with
  | Some p when p.n_workers <> slots - 1 -> teardown_pool_locked ()
  | _ -> ());
  match !pool_ref with
  | Some p -> p
  | None ->
    let p =
      {
        n_workers = slots - 1;
        job = None;
        generation = 0;
        remaining = 0;
        stop = false;
        m = Mutex.create ();
        start = Condition.create ();
        finished = Condition.create ();
        domains = [||];
      }
    in
    p.domains <-
      Array.init (slots - 1) (fun i -> Domain.spawn (fun () -> worker p (i + 1)));
    pool_ref := Some p;
    p

let shutdown () =
  Mutex.lock section_m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock section_m)
    (fun () -> teardown_pool_locked ())

let () = at_exit shutdown

let set_jobs n =
  if n < 0 then invalid_arg "Par.set_jobs: negative worker count";
  Mutex.lock section_m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock section_m)
    (fun () ->
      requested := Some n;
      (* tear the pool down on any size change; it respawns lazily *)
      match !pool_ref with
      | Some p when p.n_workers <> jobs () - 1 -> teardown_pool_locked ()
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* instrumentation                                                     *)
(* ------------------------------------------------------------------ *)

(* The counters live in the process-wide obs registry (reset with
   [Obs.Metrics.reset ~prefix:"par." ()]); the CLI's -j footer and
   every --metrics snapshot read them from there. *)

module Obs = Ser_obs.Obs

let m_sections = Obs.Metrics.counter "par.sections"
let m_seq_sections = Obs.Metrics.counter "par.sequential_sections"
let m_chunks = Obs.Metrics.counter "par.chunks"
let m_stolen = Obs.Metrics.counter "par.stolen_chunks"
let m_section_chunks = Obs.Metrics.histogram "par.section_chunks"
let busy_name slot = "par.busy_s.slot" ^ string_of_int slot

let record_section ~parallel ~chunks ~stolen ~busy =
  Obs.Metrics.incr (if parallel then m_sections else m_seq_sections);
  Obs.Metrics.add m_chunks chunks;
  Obs.Metrics.add m_stolen stolen;
  Obs.Metrics.observe m_section_chunks chunks;
  Array.iteri
    (fun i b -> Obs.Metrics.add_gauge (Obs.Metrics.gauge (busy_name i)) b)
    busy

(* ------------------------------------------------------------------ *)
(* the chunk engine                                                    *)
(* ------------------------------------------------------------------ *)

(* Default chunking must depend on the problem size only — never on the
   worker count — so ordered reductions group identically for any
   [jobs]. 32 chunks bounds per-chunk accumulator memory while leaving
   enough pieces for load balancing on any realistic pool. *)
let default_chunk n = max 1 ((n + 31) / 32)

let located_error ~chunk e =
  let ctx = [ ("par_chunk", string_of_int chunk) ] in
  match e with
  | Diag.Diag_error d -> Diag.Diag_error (Diag.with_context d ctx)
  | e ->
    Diag.Diag_error
      (Diag.makef ~subsystem:"par" ~context:ctx "worker task raised: %s"
         (Printexc.to_string e))

let parallel_chunks ?budget ?chunk ~n body =
  if n < 0 then invalid_arg "Par.parallel_chunks: negative n";
  if n > 0 then begin
    let section_sp = Obs.Trace.start "par.section" in
    let csize =
      match chunk with
      | Some c when c <= 0 -> invalid_arg "Par.parallel_chunks: chunk <= 0"
      | Some c -> c
      | None -> default_chunk n
    in
    let nchunks = (n + csize - 1) / csize in
    let errors = Array.make nchunks None in
    let next = Atomic.make 0 in
    let halt = Atomic.make false in
    let stolen = Atomic.make 0 in
    let done_chunks = Atomic.make 0 in
    let slots = jobs () in
    let busy = Array.make slots 0. in
    let slot_body slot =
      let t0 = Unix.gettimeofday () in
      let continue = ref true in
      while !continue do
        (match budget with
        | Some b when Budget.exhausted b -> Atomic.set halt true
        | Some _ | None -> ());
        if Atomic.get halt then continue := false
        else begin
          let ci = Atomic.fetch_and_add next 1 in
          if ci >= nchunks then continue := false
          else begin
            let lo = ci * csize and hi = min n ((ci + 1) * csize) in
            let sp = Obs.Trace.start "par.chunk" in
            (try body ~slot ~lo ~hi
             with e ->
               errors.(ci) <- Some e;
               Atomic.set halt true);
            Obs.Trace.finish sp;
            Atomic.incr done_chunks;
            if slot > 0 then Atomic.incr stolen
          end
        end
      done;
      if slot < slots then busy.(slot) <- Unix.gettimeofday () -. t0;
      (* per-domain memory high-water: one probe per section per slot *)
      Obs.memory_probe ()
    in
    let ran_parallel =
      if slots <= 1 || Domain.DLS.get in_section then false
      else if not (Mutex.try_lock section_m) then false
      else begin
        Fun.protect
          ~finally:(fun () -> Mutex.unlock section_m)
          (fun () ->
            let pool = ensure_pool_locked slots in
            Mutex.lock pool.m;
            pool.job <- Some slot_body;
            pool.generation <- pool.generation + 1;
            pool.remaining <- pool.n_workers;
            Condition.broadcast pool.start;
            Mutex.unlock pool.m;
            Domain.DLS.set in_section true;
            Fun.protect
              ~finally:(fun () -> Domain.DLS.set in_section false)
              (fun () -> slot_body 0);
            Mutex.lock pool.m;
            while pool.remaining > 0 do
              Condition.wait pool.finished pool.m
            done;
            pool.job <- None;
            Mutex.unlock pool.m);
        true
      end
    in
    if not ran_parallel then begin
      (* sequential fallback: same chunking, same budget polling, same
         error capture — only the execution order is fixed *)
      let nested = Domain.DLS.get in_section in
      Domain.DLS.set in_section true;
      Fun.protect
        ~finally:(fun () -> Domain.DLS.set in_section nested)
        (fun () -> slot_body 0)
    end;
    record_section ~parallel:ran_parallel ~chunks:(Atomic.get done_chunks)
      ~stolen:(Atomic.get stolen) ~busy;
    Obs.Trace.finish section_sp;
    (* re-raise the failure of the lowest failed chunk, located *)
    Array.iteri
      (fun ci err ->
        match err with
        | Some e -> raise (located_error ~chunk:ci e)
        | None -> ())
      errors
  end

let parallel_for ?budget ?chunk ~n f =
  parallel_chunks ?budget ?chunk ~n (fun ~slot:_ ~lo ~hi ->
      for i = lo to hi - 1 do
        f i
      done)

let parallel_mapi ?chunk f a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    parallel_chunks ?chunk ~n (fun ~slot:_ ~lo ~hi ->
        for i = lo to hi - 1 do
          out.(i) <- Some (f i a.(i))
        done);
    Array.map (function Some v -> v | None -> assert false) out
  end

let parallel_map ?chunk f a = parallel_mapi ?chunk (fun _ x -> f x) a

let parallel_reduce ?budget ?chunk ~n ~init ~map ~combine () =
  if n = 0 then init
  else begin
    let csize =
      match chunk with
      | Some c when c <= 0 -> invalid_arg "Par.parallel_reduce: chunk <= 0"
      | Some c -> c
      | None -> default_chunk n
    in
    let nchunks = (n + csize - 1) / csize in
    let accs = Array.make nchunks None in
    parallel_chunks ?budget ~chunk:csize ~n (fun ~slot:_ ~lo ~hi ->
        accs.(lo / csize) <- Some (map ~lo ~hi));
    Array.fold_left
      (fun acc r -> match r with Some x -> combine acc x | None -> acc)
      init accs
  end
