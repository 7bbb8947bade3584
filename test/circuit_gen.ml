(* Random synthetic circuits and cell moves shared by the incremental
   engines' property tests. *)

module Circuit = Ser_netlist.Circuit
module Library = Ser_cell.Library

(* (seed, moves, gates, depth) *)
let arb =
  QCheck.(
    quad (int_bound 10_000) (int_range 1 5) (int_range 10 60) (int_range 2 6))

let circuit ~seed ~n_gates ~depth =
  let profile =
    {
      Ser_circuits.Iscas.pr_name = "rnd";
      pr_inputs = 4 + (seed mod 5);
      pr_outputs = 2 + (seed mod 3);
      pr_gates = n_gates;
      pr_depth = depth;
      pr_xor_heavy = seed mod 4 = 0;
    }
  in
  Ser_circuits.Iscas.synthesize ~seed:(seed + 1) profile

let non_inputs c =
  let out = ref [] in
  for id = Circuit.node_count c - 1 downto 0 do
    if not (Circuit.is_input c id) then out := id :: !out
  done;
  Array.of_list !out

let variants_of lib c g =
  let nd = Circuit.node c g in
  Array.of_list (Library.variants lib nd.Circuit.kind (Array.length nd.Circuit.fanin))

(* one random (gate, variant) move *)
let random_move rng lib c gates =
  let g = gates.(Ser_rng.Rng.int rng (Array.length gates)) in
  let cands = variants_of lib c g in
  (g, cands.(Ser_rng.Rng.int rng (Array.length cands)))
