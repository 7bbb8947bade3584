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

(* The electrical-pass settings that change the WS-table kernel's
   arithmetic: the Eq-2 split and the sample-grid size. *)
let splits = [ Aserta.Analysis.Normalized; Aserta.Analysis.Naive ]
let n_samples = [ 2; 10; 40 ]

let electrical =
  QCheck.make
    ~print:(fun (split, n) ->
      Printf.sprintf "(%s, %d samples)"
        (match split with
        | Aserta.Analysis.Normalized -> "Normalized"
        | Aserta.Analysis.Naive -> "Naive")
        n)
    QCheck.Gen.(pair (oneofl splits) (oneofl n_samples))

(* Apply [n] random moves to [asg], so the delays are not uniform. *)
let perturb ~seed ~n lib c asg =
  let rng = Ser_rng.Rng.create seed in
  let gates = non_inputs c in
  for _ = 1 to n do
    let g, cand = random_move rng lib c gates in
    Ser_sta.Assignment.set asg g cand
  done

(* Every bit of an STA core: its cells, the eleven per-node float
   arrays and the critical delay. *)
let core_fingerprint (s : Ser_sta.Incr_sta.t) =
  let fl a = List.map Int64.bits_of_float (Array.to_list a) in
  ( List.map
      (Option.fold ~none:"pi" ~some:Ser_device.Cell_params.to_string)
      (Array.to_list s.cells),
    List.concat_map fl
      [
        s.pin_cap; s.loads; s.input_ramp; s.delays; s.ramps; s.arrival;
        s.dyn_energy; s.leak_power; s.cell_area; s.glitch_low; s.glitch_high;
        [| s.critical_delay |];
      ] )
