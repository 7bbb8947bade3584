(** Static timing analysis over a cell assignment: load and slew
    propagation, arrival/required times, slack, and total energy — the
    T and E terms of the paper's cost function. *)

type t = {
  loads : float array;      (** capacitive load driven by each node, fF *)
  input_ramp : float array; (** worst input slew seen by each gate, ps *)
  delays : float array;     (** per-gate propagation delay (0 at PIs), ps *)
  ramps : float array;      (** output slew of each node, ps *)
  arrival : float array;    (** latest arrival time at each node output, ps *)
  required : float array;   (** required time against the critical delay, ps *)
  slack : float array;
  critical_delay : float;   (** max arrival over primary outputs, ps *)
}

type env = {
  po_cap : float;  (** latch load at each primary output, fF *)
  pi_ramp : float; (** slew of signals entering from primary inputs, ps *)
}

val default_env : env
(** 1.0 fF, 20 ps. *)

val analyze :
  ?env:env -> Ser_cell.Library.t -> Assignment.t -> t
(** One forward + one backward pass; O(V + E). *)

val backward :
  Ser_netlist.Circuit.t ->
  delays:float array ->
  arrival:float array ->
  critical_delay:float ->
  float array * float array
(** The backward sweep of {!analyze}: [(required, slack)] against the
    critical delay. A slack within [1e-9 * critical_delay] of zero is
    subtraction residue and is returned as exactly [0.], so the nodes
    of {!critical_path} read slack [0.]. *)

val critical_path : Assignment.t -> t -> int array
(** Node ids of one critical path, PI first, PO last. *)

val total_energy :
  ?env:env -> ?clock:float -> ?activity:float -> ?timing:t ->
  Ser_cell.Library.t -> Assignment.t -> float
(** Energy per clock cycle, fJ: switching energy times [activity]
    (default 0.2) plus leakage over [clock] (default: 1.2x the critical
    delay). Pass [timing] to reuse an existing analysis. *)
