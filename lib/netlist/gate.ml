type kind = Input | Buf | Not | And | Nand | Or | Nor | Xor | Xnor

let all = [ Input; Buf; Not; And; Nand; Or; Nor; Xor; Xnor ]

let to_string = function
  | Input -> "INPUT"
  | Buf -> "BUF"
  | Not -> "NOT"
  | And -> "AND"
  | Nand -> "NAND"
  | Or -> "OR"
  | Nor -> "NOR"
  | Xor -> "XOR"
  | Xnor -> "XNOR"

let of_string s =
  match String.uppercase_ascii s with
  | "INPUT" -> Some Input
  | "BUF" | "BUFF" -> Some Buf
  | "NOT" | "INV" -> Some Not
  | "AND" -> Some And
  | "NAND" -> Some Nand
  | "OR" -> Some Or
  | "NOR" -> Some Nor
  | "XOR" -> Some Xor
  | "XNOR" -> Some Xnor
  | _ -> None

let min_fanin = function
  | Input -> 0
  | Buf | Not -> 1
  | And | Nand | Or | Nor | Xor | Xnor -> 2

let max_fanin = function
  | Input -> 0
  | Buf | Not -> 1
  | And | Nand | Or | Nor | Xor | Xnor -> 9

let inverting = function
  | Not | Nand | Nor | Xnor -> true
  | Input | Buf | And | Or | Xor -> false

let code = function
  | Buf -> 0
  | Not -> 1
  | And -> 2
  | Nand -> 3
  | Or -> 4
  | Nor -> 5
  | Xor -> 6
  | Xnor -> 7
  | Input -> 8

let check_arity kind n =
  if kind = Input then invalid_arg "Gate.eval: Input has no inputs";
  if n < min_fanin kind || n > max_fanin kind then
    invalid_arg
      (Printf.sprintf "Gate.eval: %s with fan-in %d" (to_string kind) n)

let eval_bool kind inputs =
  let n = Array.length inputs in
  check_arity kind n;
  match kind with
  | Input -> assert false
  | Buf -> inputs.(0)
  | Not -> not inputs.(0)
  | And -> Array.for_all Fun.id inputs
  | Nand -> not (Array.for_all Fun.id inputs)
  | Or -> Array.exists Fun.id inputs
  | Nor -> not (Array.exists Fun.id inputs)
  | Xor -> Array.fold_left (fun acc b -> acc <> b) false inputs
  | Xnor -> not (Array.fold_left (fun acc b -> acc <> b) false inputs)

let eval_words kind inputs =
  let n = Array.length inputs in
  check_arity kind n;
  match kind with
  | Input -> assert false
  | Buf -> inputs.(0)
  | Not -> lnot inputs.(0)
  | And -> Array.fold_left ( land ) inputs.(0) inputs
  | Nand -> lnot (Array.fold_left ( land ) inputs.(0) inputs)
  | Or -> Array.fold_left ( lor ) inputs.(0) inputs
  | Nor -> lnot (Array.fold_left ( lor ) inputs.(0) inputs)
  | Xor -> Array.fold_left ( lxor ) 0 inputs
  | Xnor -> lnot (Array.fold_left ( lxor ) 0 inputs)

let controlling_value = function
  | And | Nand -> Some false
  | Or | Nor -> Some true
  | Input | Buf | Not | Xor | Xnor -> None

let sensitizing_side_value kind =
  Option.map not (controlling_value kind)
