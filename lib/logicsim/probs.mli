(** Probabilities ASERTA's logical-masking model needs:

    - static signal probabilities [p_i] (the paper obtains these from
      Synopsys Design Compiler with 0.5 at the inputs),
    - side-input sensitization [S_is] (all other inputs of gate [s]
      non-controlling),
    - path-sensitization probabilities [P_ij] (at least one sensitized
      path from gate [i] to primary output [j]), estimated by
      bit-parallel fault injection over random vectors, as in the
      paper (10 000 vectors). *)

val signal_probabilities :
  ?pi_prob:float -> ?pi_probs:float array -> Ser_netlist.Circuit.t -> float array
(** Topological propagation under the independence assumption:
    [p(AND) = prod p_k], etc. Exact for fan-out-free circuits.
    [pi_prob] (default 0.5) applies to every input; [pi_probs] gives a
    per-input probability (indexed like [inputs]) and overrides it.
    Indexed by node id. *)

val signal_probabilities_mc :
  ?pi_probs:float array ->
  rng:Ser_rng.Rng.t -> vectors:int -> Ser_netlist.Circuit.t -> float array
(** Monte-Carlo signal probabilities from random simulation. Batches of
    patterns are distributed over the {!Ser_par.Par} pool; every batch
    draws from its own index-keyed RNG stream, so the estimate is
    bit-identical for any worker count. *)

val side_sensitization :
  Ser_netlist.Circuit.t -> probs:float array -> gate:int -> pin:int -> float
(** [S_is] where [s = gate] and the changing input arrives on [pin]:
    the probability that every other input of [gate] holds its
    non-controlling value. 1.0 for XOR/XNOR/BUF/NOT. *)

val sensitization_to_driver :
  Ser_netlist.Circuit.t -> probs:float array -> gate:int -> driver:int -> float
(** [S_is] by driver id: the probability that a change on the output of
    [driver] can pass through [gate]. When [driver] feeds several pins
    of [gate] the strongest (maximum) pin sensitization is used. Raises
    [Not_found] if [driver] is not a fanin of [gate]. *)

type path_probs = {
  vectors : int;             (** vectors actually simulated *)
  p : float array array;     (** [p.(id).(pos)] = P_ij *)
  flips : int;
      (** root flips simulated: unpruned FFR roots times batches
          (0 for the analytic estimate) *)
}

val path_probabilities :
  ?pi_probs:float array ->
  ?prune:bool array ->
  rng:Ser_rng.Rng.t ->
  vectors:int ->
  Ser_netlist.Circuit.t ->
  path_probs
(** Fault-injection estimate of [P_ij] for every non-input node [i] and
    every primary output [j]: the fraction of random vectors under
    which flipping the output of [i] changes output [j]. Rows of
    primary-input nodes are all zero. A primary-output gate [j] has
    [P_jj = 1].

    [prune.(id) = true] (indexed by node id, length [node_count])
    leaves node [id]'s row all-zero, and a pruned root is never
    flipped. Sound only for sites holding an exhaustive
    no-PO-difference witness (an ODC [Proven_masked] classification),
    where simulation would count zero detections anyway; surviving
    rows are bit-identical to the unpruned run.

    Each batch flips every unpruned fanout-free-region root once with
    the {!Flipsim} kernel on the circuit's graph
    ([Ser_netlist.Circuit.graph]) and traces the region's members
    from the root's difference words, so the estimate equals flipping
    every gate separately, bit for bit. The roots of a batch fan out
    over the shared {!Ser_par.Par} pool. The result is bit-identical
    for any worker count: each root owns its region's counters, and
    batch [b] draws its random vectors from the index-keyed stream
    [Ser_rng.Rng.stream base b] (where [base] is split off [rng] once),
    not from a generator shared across workers. *)

val path_probabilities_analytic :
  ?probs:float array -> Ser_netlist.Circuit.t -> path_probs
(** Vectorless estimate of [P_ij] by backward propagation under the
    path-independence assumption:

    {v P_ij = 1 - prod_s (1 - S_is * P_sj) v}

    over the distinct successors [s] of [i], folded in ascending id
    order (the circuit graph's successor order). The paper notes this is how
    sensitization probabilities "can be calculated as in [8]" for
    circuits {e without} reconvergent fan-out — where it is exact —
    while the general problem is NP-complete, which is why ASERTA
    defaults to random-vector fault simulation. Exposed as an
    alternative masking backend and for the accuracy ablation.
    [probs] defaults to {!signal_probabilities}. The [vectors] field of
    the result is 0. *)

val detection_counts_for_vector :
  Ser_netlist.Circuit.t -> bool array -> strike:int -> bool array
(** Single-vector variant: which primary outputs flip when the output
    of [strike] is inverted under the given input vector. Used by the
    measured-unreliability mode and by tests as a brute-force oracle. *)
