module Circuit = Ser_netlist.Circuit
module Library = Ser_cell.Library
module Assignment = Ser_sta.Assignment
module Timing = Ser_sta.Timing

type spectrum = {
  flux_f0 : float;
  q_slope : float;
  q_min : float;
  q_max : float;
  n_points : int;
}

let default_spectrum =
  { flux_f0 = 1000.; q_slope = 6.; q_min = 1.; q_max = 120.; n_points = 24 }

type t = {
  spectrum : spectrum;
  clock_period : float;
  per_gate : float array;
  total : float;
}

let latch_probability ~clock_period w =
  if clock_period <= 0. then invalid_arg "Ser_rate.latch_probability: bad clock";
  Float.min 1. (Float.max 0. w /. clock_period)

(* density of the exponential charge model: f(Q) = exp(-Q/Qs)/Qs *)
let density spectrum q = exp (-.q /. spectrum.q_slope) /. spectrum.q_slope

type quadrature = {
  q_spectrum : spectrum;
  q_clock : float;
  q_charges : float array;
  q_density : float array;
}

let quadrature ?(spectrum = default_spectrum) ~clock_period () =
  if spectrum.n_points < 2 then invalid_arg "Ser_rate: need >= 2 points";
  if spectrum.q_min <= 0. || spectrum.q_max <= spectrum.q_min then
    invalid_arg "Ser_rate: bad charge range";
  let charges =
    Ser_util.Floatx.logspace spectrum.q_min spectrum.q_max spectrum.n_points
  in
  {
    q_spectrum = spectrum;
    q_clock = clock_period;
    q_charges = charges;
    q_density = Array.map (density spectrum) charges;
  }

let gate_rate q glitch ~node_cap ~p1 ~area ~samples ~po ~rows =
  let clock_period = q.q_clock in
  let n_pos = Array.length rows in
  (* capture probability summed over outputs, as a function of Q *)
  let capture charge =
    let w_low = Library.glitch_width glitch ~node_cap ~charge ~output_low:true in
    let w_high = Library.glitch_width glitch ~node_cap ~charge ~output_low:false in
    let wi = ((1. -. p1) *. w_low) +. (p1 *. w_high) in
    if wi <= 0. then 0.
    else begin
      let acc = ref 0. in
      for j = 0 to n_pos - 1 do
        let wij = Analysis.width_at ~samples ~own_po:po ~rows ~po:j wi in
        acc := !acc +. latch_probability ~clock_period wij
      done;
      !acc
    end
  in
  (* trapezoidal integration of capture(Q) * density(Q) *)
  let charges = q.q_charges and dens = q.q_density in
  let integral = ref 0. in
  let prev = ref (capture charges.(0) *. dens.(0)) in
  for k = 1 to Array.length charges - 1 do
    let cur = capture charges.(k) *. dens.(k) in
    integral :=
      !integral +. (0.5 *. (!prev +. cur) *. (charges.(k) -. charges.(k - 1)));
    prev := cur
  done;
  q.q_spectrum.flux_f0 *. area *. !integral

let run ?spectrum ?clock_period lib asg (analysis : Analysis.t) =
  let clock_period =
    match clock_period with
    | Some t -> t
    | None -> 1.2 *. analysis.Analysis.timing.Timing.critical_delay
  in
  let q = quadrature ?spectrum ~clock_period () in
  let c = Assignment.circuit asg in
  let n = Circuit.node_count c in
  let per_gate = Array.make n 0. in
  for id = 0 to n - 1 do
    if not (Circuit.is_input c id) then begin
      let cell = Assignment.get asg id in
      per_gate.(id) <-
        gate_rate q (Library.glitch_kernel lib cell)
          ~node_cap:
            (analysis.Analysis.timing.Timing.loads.(id)
            +. Library.output_cap lib cell)
          ~p1:analysis.Analysis.masking.Analysis.probs.(id)
          ~area:(Library.area lib cell) ~samples:analysis.Analysis.samples
          ~po:c.Circuit.po_pos.(id) ~rows:analysis.Analysis.tables.(id)
    end
  done;
  {
    spectrum = q.q_spectrum;
    clock_period;
    per_gate;
    total = Ser_util.Floatx.sum per_gate;
  }
