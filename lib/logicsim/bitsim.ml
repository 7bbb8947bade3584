module Circuit = Ser_netlist.Circuit

let bits_per_word = 62

(* built eagerly at module init: a [lazy] here would be forced
   concurrently by pool domains, and racing forcers of the same lazy
   raise CamlinternalLazy.Undefined on OCaml 5 *)
let pop16 =
  let t = Bytes.create 65536 in
  for i = 0 to 65535 do
    let rec count x = if x = 0 then 0 else (x land 1) + count (x lsr 1) in
    Bytes.unsafe_set t i (Char.chr (count i))
  done;
  t

let popcount x =
  let t = pop16 in
  let b i = Char.code (Bytes.unsafe_get t ((x lsr i) land 0xffff)) in
  b 0 + b 16 + b 32 + Char.code (Bytes.unsafe_get t ((x lsr 48) land 0x3fff))

let mask_of k =
  if k < 0 || k > bits_per_word then invalid_arg "Bitsim.mask_of";
  if k = 0 then 0 else (1 lsl k) - 1

type batch = { n_patterns : int; values : int array }

let eval (c : Circuit.t) ~pi_words ~n_patterns =
  if Array.length pi_words <> Array.length c.inputs then
    invalid_arg "Bitsim.eval: wrong input count";
  if n_patterns < 1 || n_patterns > bits_per_word then
    invalid_arg "Bitsim.eval: bad pattern count";
  let g = Circuit.graph c in
  let n = Circuit.node_count c in
  let values = Array.make n 0 in
  Array.iteri (fun pos id -> values.(id) <- pi_words.(pos)) c.inputs;
  (* ascending ids are topological; only primary inputs have no fanin *)
  for id = 0 to n - 1 do
    if g.fi_off.(id + 1) > g.fi_off.(id) then
      values.(id) <- Flipsim.eval_node g values id
  done;
  { n_patterns; values }

let biased_word rng p =
  let w = ref 0 in
  for bit = 0 to bits_per_word - 1 do
    if Ser_rng.Rng.bernoulli rng p then w := !w lor (1 lsl bit)
  done;
  !w

let random_batch ?pi_probs rng c ~n_patterns =
  (match pi_probs with
  | Some ps ->
    if Array.length ps <> Array.length c.Circuit.inputs then
      invalid_arg "Bitsim.random_batch: pi_probs length mismatch"
  | None -> ());
  let pi_words =
    Array.mapi
      (fun pos _ ->
        match pi_probs with
        | None ->
          Int64.to_int (Int64.logand (Ser_rng.Rng.bits64 rng) 0x3FFFFFFFFFFFFFFFL)
        | Some ps -> biased_word rng ps.(pos))
      c.Circuit.inputs
  in
  eval c ~pi_words ~n_patterns

let eval_vector c vector =
  let pi_words = Array.map (fun b -> if b then 1 else 0) vector in
  let batch = eval c ~pi_words ~n_patterns:1 in
  Array.map (fun w -> w land 1 = 1) batch.values

let ones_count batch id =
  popcount (batch.values.(id) land mask_of batch.n_patterns)
