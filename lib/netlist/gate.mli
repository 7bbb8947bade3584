(** Logic gate kinds and their boolean semantics.

    The gate set is the one used by the ISCAS'85 benchmarks: primary
    inputs plus BUF/NOT/AND/NAND/OR/NOR/XOR/XNOR with arbitrary fan-in
    (fan-in 1 only for BUF/NOT). *)

type kind =
  | Input  (** primary input pseudo-gate; no fan-in *)
  | Buf
  | Not
  | And
  | Nand
  | Or
  | Nor
  | Xor
  | Xnor

val all : kind list
(** Every kind, [Input] first. *)

val to_string : kind -> string
(** Upper-case ISCAS name, e.g. ["NAND"]. *)

val of_string : string -> kind option
(** Case-insensitive inverse of {!to_string}; also accepts ["INPUT"]. *)

val min_fanin : kind -> int
(** Smallest legal fan-in: 0 for [Input], 1 for [Buf]/[Not], 2
    otherwise. *)

val max_fanin : kind -> int
(** Largest fan-in supported by the cell library (9, matching the
    largest ISCAS'85 gate). 0 for [Input], 1 for [Buf]/[Not]. *)

val inverting : kind -> bool
(** Whether the gate logically inverts ([Not], [Nand], [Nor], [Xnor]). *)

val code : kind -> int
(** Small-int code for kernels that dispatch on an int instead of the
    variant: [Buf] 0, [Not] 1, [And] 2, [Nand] 3, [Or] 4, [Nor] 5,
    [Xor] 6, [Xnor] 7, [Input] 8. So [code k lsr 1] is the gate family
    and [code k] is odd iff [k] inverts. *)

val eval_bool : kind -> bool array -> bool
(** Boolean evaluation. Raises [Invalid_argument] for [Input] or for an
    arity outside [min_fanin .. max_fanin]. *)

val eval_words : kind -> int array -> int
(** Bit-parallel evaluation over machine words: every bit position is an
    independent pattern. The result of inverting gates has all word bits
    complemented; callers mask with their pattern mask when counting. *)

val controlling_value : kind -> bool option
(** The input value that forces the output regardless of other inputs:
    [Some false] for AND/NAND, [Some true] for OR/NOR, [None] for
    XOR/XNOR/BUF/NOT/Input. *)

val sensitizing_side_value : kind -> bool option
(** The value the {e other} inputs must hold for a change on one input
    to reach the output: the complement of {!controlling_value};
    [None] when any side value sensitizes (XOR family, single-input
    gates). *)
