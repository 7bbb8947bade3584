type weights = {
  w_unrel : float;
  w_delay : float;
  w_energy : float;
  w_area : float;
}

let default_weights = { w_unrel = 1.0; w_delay = 0.2; w_energy = 0.15; w_area = 0.1 }

type metrics = {
  unreliability : float;
  delay : float;
  energy : float;
  area : float;
}

type objective =
  | Fixed_charge
  | Charge_spectrum of Aserta.Ser_rate.spectrum

let measure ~config ~masking ?(objective = Fixed_charge) ?clock_period lib asg =
  let analysis = Aserta.Analysis.run_electrical config lib asg masking in
  let delay = analysis.Aserta.Analysis.timing.Ser_sta.Timing.critical_delay in
  let energy =
    Ser_sta.Timing.total_energy ~env:config.Aserta.Analysis.env
      ~timing:analysis.Aserta.Analysis.timing lib asg
  in
  let area = Ser_sta.Assignment.total_area lib asg in
  let unreliability =
    match objective with
    | Fixed_charge -> analysis.Aserta.Analysis.total
    | Charge_spectrum spectrum ->
      (Aserta.Ser_rate.run ~spectrum ?clock_period lib asg analysis)
        .Aserta.Ser_rate.total
  in
  ({ unreliability; delay; energy; area }, analysis)

let delay_slack = 0.05

let eval ?(weights = default_weights) ~baseline m =
  let r_u = m.unreliability /. Float.max 1e-12 baseline.unreliability in
  let r_t = m.delay /. Float.max 1e-12 baseline.delay in
  let r_e = m.energy /. Float.max 1e-12 baseline.energy in
  let r_a = m.area /. Float.max 1e-12 baseline.area in
  let penalty =
    let over = r_t -. (1. +. delay_slack) in
    if over > 0. then 50. *. over else 0.
  in
  (weights.w_unrel *. r_u) +. (weights.w_delay *. r_t)
  +. (weights.w_energy *. r_e) +. (weights.w_area *. r_a) +. penalty

let ratios ~baseline m =
  {
    unreliability = m.unreliability /. Float.max 1e-12 baseline.unreliability;
    delay = m.delay /. Float.max 1e-12 baseline.delay;
    energy = m.energy /. Float.max 1e-12 baseline.energy;
    area = m.area /. Float.max 1e-12 baseline.area;
  }
