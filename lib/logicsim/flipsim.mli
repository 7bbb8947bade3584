(** Event-driven flip propagation with fanout-free-region (FFR)
    tracing: the bit-parallel fault-injection kernel behind
    {!Probs.path_probabilities} and lib/odc's observability screen and
    proofs.

    {b Flip.} Inverting a node's output word and propagating the
    difference only evaluates the successors of nodes whose word
    actually changed, level by level, and stops as soon as nothing is
    pending. Bit [k] of every word is an independent input pattern.

    {b FFR tracing.} A non-input gate that is not a primary output and
    drives exactly one pin is an FFR {e member}; every other gate
    (primary outputs, fanout stems, gates driving two pins of one
    successor) is an FFR {e root}. A member [g] with successor [s] on
    pin [k] has a single path to its root, so flipping [g] changes an
    output under exactly the patterns where [s]'s other pins are
    non-controlling and flipping [s] changes it:

    {v W(g) = sens_k(s, good) land W(s),   W(root) = observed(root) v}

    Simulating one flip per root and tracing [W] through its members
    therefore gives every member's detect words exactly.

    The kernel runs on the circuit's {!Ser_netlist.Circuit.Graph}
    ([Circuit.graph c]): its kind codes, CSR fanin and distinct
    fanout, levels, output positions and FFR partition. *)

val eval_node : Ser_netlist.Circuit.Graph.t -> int array -> int -> int
(** [eval_node g words s] is gate [s]'s output word given its fanins'
    entries in [words] (one word per node id; not bounds-checked): the
    one word-level gate evaluation, of {!flip} and of {!Bitsim.eval}. *)

type scratch
(** Per-domain working state of {!flip} and {!trace} on one circuit
    graph. One per worker; reusable across sites and batches. *)

val scratch : Ser_netlist.Circuit.Graph.t -> scratch

val flip : scratch -> good:int array -> mask:int -> int -> unit
(** [flip ws ~good ~mask i] inverts node [i]'s word under the
    fault-free words [good] (one per node, as {!Bitsim.batch}
    [values]) and propagates the difference. [mask] covers the live
    patterns. Afterwards {!hits}, {!hit_pos}, {!hit_diff} and
    {!observed} describe the primary outputs the flip reached, until
    the next [flip] on [ws]. [good] is loaded into [ws] when it is not
    the array the previous flip used (physical equality), so it must
    not be mutated between flips. *)

val hits : scratch -> int
(** Primary outputs whose word the last flip changed. *)

val hit_pos : scratch -> int -> int
(** [hit_pos ws h], [0 <= h < hits ws]: the output's position in
    [outputs]. *)

val hit_diff : scratch -> int -> int
(** [hit_diff ws h]: the masked difference word at that output. *)

val observed : scratch -> int
(** OR of the difference words: bit [k] is set iff pattern [k]
    carried the last flip to at least one primary output. *)

val trace : scratch -> int -> (int -> int -> unit) -> unit
(** [trace ws r f], right after [flip ws ~good ~mask r] on the root
    [r], calls [f g w] for [r] itself and then each member [g] of
    [r]'s FFR in descending id order, whenever [g]'s word [w] is
    nonzero. [w] is already ANDed with {!observed} ([w = observed]
    at the root): [popcount (w land hit_diff ws h)] is [g]'s detect
    count at output [hit_pos ws h], and [popcount w] its any-output
    count. Raises [Invalid_argument] unless [r] is the root the last
    [flip] on [ws] inverted. *)
