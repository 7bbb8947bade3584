(** Reverse-topological library matching (Section 4 of the paper):
    given a target delay for every gate, pick the library variant whose
    delay under the (already known) output load is closest to the
    target, walking from primary outputs to primary inputs so that each
    gate's capacitive load is fixed before the gate itself is chosen.

    The single matching constraint from the paper is enforced: a gate
    may only use a VDD greater than or equal to every successor's VDD,
    so no low-VDD gate ever drives a high-VDD gate and no level
    shifters are needed. *)

type options = {
  max_size : float; (** largest size allowed (paper: the baseline's max) *)
  env : Ser_sta.Timing.env;
}

val default_options : options
(** [max_size = 8.], default timing env. *)

type context
(** Everything about a matching run that does not depend on the
    targets, built once per optimization: for each (kind, fan-in) the
    allowed menu (size at most [max_size], {!Ser_cell.Library.variants}
    order) with its compiled timing kernels, VDDs, areas and pin
    capacitances, and the input-slew estimates from one timing pass of
    the base assignment. Immutable; safe to share across domains.
    Building it compiles every allowed variant's kernel (on the
    transient backend: characterises every allowed variant). *)

val context :
  ?options:options -> Ser_cell.Library.t -> Ser_sta.Assignment.t -> context
(** [context lib base]: [base] supplies the input slews and the
    fallback cell of a gate whose menu is empty under the VDD floor. *)

val match_delays : context -> targets:float array -> Ser_sta.Assignment.t
(** A fresh assignment whose gate delays approximate [targets] (indexed
    by node id; entries for primary inputs are ignored). Among the
    candidates within the tie band ([max 1 (best error + 10% of the
    target)] ps) the first one of minimum area wins. *)
