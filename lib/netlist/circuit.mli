(** Combinational circuits as directed acyclic graphs of gates.

    A circuit is an immutable array of nodes indexed by id. Ids are
    assigned by the builder in creation order, which is also a valid
    topological order (a gate may only reference already-created
    nodes), so [0 .. n-1] ascending is always PI-to-PO topological and
    descending is PO-to-PI reverse topological.

    Every engine reads the circuit's structure through one value: the
    primary-output positions are computed when the circuit is built,
    and the flat {!Graph} on first use of {!graph}. *)

type node = {
  id : int;
  name : string;
  kind : Gate.kind;
  fanin : int array;  (** driver node ids, in pin order *)
  fanout : int array; (** reader node ids, each listed once per pin *)
}

(** The circuit compiled to flat int arrays, for kernels that walk the
    graph many times: fault injection ([Ser_logicsim.Flipsim]), the
    WS-table and serpp successor sums, the analytic [P_ij] and the ODC
    screen. Arrays indexed by node id have length {!node_count}; CSR
    slices [off.(id) .. off.(id + 1) - 1] index the flat array beside
    them. Immutable; shared across domains. *)
module Graph : sig
  type t = private {
    kind : int array;  (** {!Gate.code} of each node's kind *)
    fi_off : int array;  (** [node_count + 1] offsets into [fi] *)
    fi : int array;  (** fanin ids, in pin order *)
    fo_off : int array;  (** [node_count + 1] offsets into [fo] *)
    fo : int array;
        (** distinct successor ids, ascending: [List.sort_uniq] of
            [fanout] *)
    level : int array;  (** {!levels_from_inputs} *)
    lvl_off : int array;
        (** [max level + 2] offsets: the number of nodes below each
            level, prefix-summed (a bucket layout by level) *)
    po_pos : int array;  (** output position, or [-1] *)
    succ : int array;
        (** fanout-free-region member: its one successor; [-1] at
            roots and inputs *)
    pin_at : int array;  (** member: its position in [fi] of [succ] *)
    roots : int array;  (** FFR roots, ascending ids *)
    mem_off : int array;  (** [node_count + 1] offsets into [mem], by root id *)
    mem : int array;  (** each root's members, descending ids *)
  }
  (** A non-input gate that is not a primary output and drives exactly
      one pin is a fanout-free-region (FFR) {e member}; every other
      gate (primary outputs, fanout stems, gates driving two pins of
      one successor) is an FFR {e root}. Each member belongs to the
      root its single-successor chain ends at, so roots and members
      partition the gates. *)

  val successors : t -> int -> int array
  (** Distinct successor ids of a node, ascending (a fresh array). *)
end

type graph_cache
(** Where a circuit keeps its {!Graph} once built. *)

type t = private {
  name : string;
  nodes : node array;
  inputs : int array;  (** ids of primary inputs, in declaration order *)
  outputs : int array; (** ids of primary outputs, in declaration order *)
  po_pos : int array;
      (** per node id: its position in [outputs], or [-1]; computed
          when the circuit is built *)
  cache : graph_cache;
}

val node_count : t -> int
(** Total nodes including primary inputs. *)

val gate_count : t -> int
(** Nodes that are real gates (excludes primary inputs). *)

val node : t -> int -> node
(** Raises [Invalid_argument] on an out-of-range id. *)

val is_input : t -> int -> bool

val is_output : t -> int -> bool
(** O(1). Raises [Invalid_argument] on an out-of-range id. *)

val find_by_name : t -> string -> int option
(** Linear scan; intended for tests and CLI lookups. *)

val output_index : t -> int -> int option
(** [output_index c id] is the position of [id] in [c.outputs], if it is
    a primary output. O(1). *)

val graph : t -> Graph.t
(** The circuit's {!Graph}, built on first use and cached in [t]: every
    later call, from any domain, returns the physically same value.
    A first use from several domains at once is safe; it may build
    the graph more than once but publishes one. *)

(** {1 Traversals} *)

val levels_from_inputs : t -> int array
(** [.(id)] is the longest path length (in gates) from any primary
    input; inputs are level 0. *)

val levels_to_outputs : t -> int array
(** [.(id)] is the longest path length to any primary output that the
    node reaches; a primary output gate has level 0. Nodes reaching no
    output get [-1]. *)

val depth : t -> int
(** Longest input-to-output path length in gates. *)

val fanout_cone : t -> int -> int array
(** [fanout_cone c id] is the set of nodes reachable from [id]
    (including [id]) in ascending id order, i.e. topologically
    sorted. *)

val fanin_cone : t -> int -> int array
(** Transitive fan-in including [id], ascending ids. *)

val reachable_outputs : t -> int -> int array
(** Primary-output {e positions} (indices into [outputs]) reachable from
    a node, ascending. *)

(** {1 Identity} *)

val digest : t -> string
(** Canonical MD5 (hex) of the circuit structure: name, sorted
    input/output/gate lines with fanin in pin order. Order-invariant
    over declaration order (the bench parser accepts declarations in
    any order), but sensitive to anything semantically significant —
    gate kinds, fanin pin order, names. Shared by the serve daemon's
    content-addressed cache keys and the ODC report binding, so a
    report can never be replayed against a different netlist. *)

(** {1 Statistics} *)

type stats = {
  n_inputs : int;
  n_outputs : int;
  n_gates : int;
  depth : int;
  max_fanin : int;
  max_fanout : int;
  kind_counts : (Gate.kind * int) list;
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

(** {1 Construction} *)

module Builder : sig
  type circuit := t

  type t
  (** Mutable circuit under construction. *)

  val create : ?name:string -> unit -> t

  val add_input : t -> string -> int
  (** Declare a primary input; returns its id. Raises
      [Invalid_argument] on a duplicate name. *)

  val add_gate : t -> ?name:string -> Gate.kind -> int list -> int
  (** [add_gate b kind fanin] appends a gate driven by existing node
      ids and returns its id. A fresh name is generated when [name] is
      omitted. Raises [Invalid_argument] for [Input] kind, unknown
      fanin ids, arity violations, duplicate names, or duplicate fanin
      pins on XOR/XNOR (where [a xor a] would be constant). *)

  val set_output : t -> int -> unit
  (** Mark an existing node as a primary output. Idempotent. *)

  val node_count : t -> int

  val build : t -> (circuit, string) result
  (** Finalize. Fails when there are no inputs, no outputs, or a
      non-output node with no fanout (dangling logic) — pass
      [`Allow_dangling] situations by marking such nodes as outputs or
      using {!build_trimmed}. *)

  val build_exn : t -> circuit
  (** Like {!build} but raises [Failure]. *)

  val build_trimmed : t -> (circuit, string) result
  (** Like {!build}, but silently deletes dangling logic (nodes from
      which no primary output is reachable) instead of failing. Ids are
      compacted; name-based lookup still works. *)
end
