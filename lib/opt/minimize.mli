(** The derivative-free minimiser SERTOPT runs.

    The paper minimises its cost with MATLAB's SQP and notes that
    "simulated annealing, genetic algorithms or some other optimization
    algorithm can also be used"; objective evaluations here are
    expensive (an ASERTA re-analysis each), so this is a budget-aware
    direct search. *)

type result = {
  x : float array;   (** best point found *)
  fx : float;        (** objective at [x] *)
  evals : int;       (** objective evaluations spent *)
  trace : float list; (** best objective after each improvement, oldest first *)
  degraded : bool;   (** the search was cut short by an exhausted
                         {!Ser_util.Budget}; [x] is the best point seen
                         so far, still a valid result *)
}

val direction_search :
  f:(float array -> float) ->
  x0:float array ->
  directions:float array array ->
  ?step:float ->
  ?shrink:float ->
  ?min_step:float ->
  ?max_evals:int ->
  ?budget:Ser_util.Budget.t ->
  unit ->
  result
(** Pattern search along arbitrary direction vectors — the
    nullspace-basis search at the heart of SERTOPT: probe +-step along
    every direction, accept improvements, shrink the step by [shrink]
    (default 0.5) when a full sweep fails, stop at [min_step] or the
    evaluation budget. Unit directions give coordinate descent. *)
