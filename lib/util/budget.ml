(* Budgets are polled from parallel sections (lib/par ticks and checks
   them from worker domains), so the counters are atomics: a tick must
   never be lost and the latch must be monotone across domains.

   All time is measured on the monotonic clock (Mono.now): budgets and
   the supervisor watchdogs built on them must be immune to system
   clock adjustments during long batch runs. *)
type t = {
  max_evals : int option;
  deadline : float option; (* absolute monotonic time, seconds *)
  started : float; (* monotonic *)
  evals : int Atomic.t;
  latched : bool Atomic.t;
  cancelled : bool Atomic.t;
}

let now () = Mono.now ()

let create ?max_evals ?max_seconds () =
  (match max_evals with
  | Some n when n < 0 -> invalid_arg "Budget.create: negative max_evals"
  | _ -> ());
  (match max_seconds with
  | Some s when s < 0. || Float.is_nan s ->
    invalid_arg "Budget.create: bad max_seconds"
  | _ -> ());
  let started = now () in
  {
    max_evals;
    deadline = Option.map (fun s -> started +. s) max_seconds;
    started;
    evals = Atomic.make 0;
    latched = Atomic.make false;
    cancelled = Atomic.make false;
  }

let tick b = Atomic.incr b.evals

let evals b = Atomic.get b.evals

let elapsed b = now () -. b.started

(* async-signal-safe: two atomic stores, no allocation, so it may be
   called from a Sys.Signal_handle *)
let cancel b =
  Atomic.set b.cancelled true;
  Atomic.set b.latched true

let was_cancelled b = Atomic.get b.cancelled

let exhausted b =
  if Atomic.get b.latched then true
  else begin
    let over_evals =
      match b.max_evals with
      | Some n -> Atomic.get b.evals >= n
      | None -> false
    in
    let over_time =
      match b.deadline with Some d -> now () >= d | None -> false
    in
    if over_evals || over_time then Atomic.set b.latched true;
    Atomic.get b.latched
  end

let was_exhausted b = Atomic.get b.latched

let diag b =
  let evals = Atomic.get b.evals in
  let reason =
    if Atomic.get b.cancelled then
      Printf.sprintf "interrupted after %.2f s (operator signal)" (elapsed b)
    else
      match (b.max_evals, b.deadline) with
      | Some n, _ when evals >= n ->
        Printf.sprintf "evaluation budget exhausted (%d evals)" evals
      | _ -> Printf.sprintf "deadline exceeded after %.2f s" (elapsed b)
  in
  Diag.make ~severity:Warning ~subsystem:"budget"
    ~context:
      [
        ("evals", string_of_int evals);
        ("elapsed_s", Printf.sprintf "%.3f" (elapsed b));
      ]
    reason
