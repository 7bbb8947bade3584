module Glitch = Aserta.Glitch
module Analysis = Aserta.Analysis
module Measured = Aserta.Measured
module Circuit = Ser_netlist.Circuit
module Gate = Ser_netlist.Gate
module L = Ser_cell.Library
module A = Ser_sta.Assignment

(* ---------------- Eq. 1 ---------------- *)

let test_eq1_regimes () =
  Alcotest.(check (float 0.)) "killed" 0. (Glitch.propagate ~delay:10. ~width:5.);
  Alcotest.(check (float 0.)) "boundary w=d" 0. (Glitch.propagate ~delay:10. ~width:9.999);
  Alcotest.(check (float 1e-9)) "attenuating" 10. (Glitch.propagate ~delay:10. ~width:15.);
  Alcotest.(check (float 1e-9)) "boundary w=2d" 20. (Glitch.propagate ~delay:10. ~width:20.);
  Alcotest.(check (float 1e-9)) "pass-through" 50. (Glitch.propagate ~delay:10. ~width:50.);
  Alcotest.(check (float 0.)) "negative clamps" 0. (Glitch.propagate ~delay:10. ~width:(-3.))

let eq1_monotone_prop =
  QCheck.Test.make ~name:"Eq-1 monotone in width, antitone in delay" ~count:300
    QCheck.(triple (float_range 0.1 100.) (float_range 0. 200.) (float_range 0. 50.))
    (fun (d, w, dw) ->
      Glitch.propagate ~delay:d ~width:(w +. dw) >= Glitch.propagate ~delay:d ~width:w
      && Glitch.propagate ~delay:(d +. 1.) ~width:w <= Glitch.propagate ~delay:d ~width:w)

let eq1_contraction_prop =
  QCheck.Test.make ~name:"Eq-1 never amplifies" ~count:300
    QCheck.(pair (float_range 0.1 100.) (float_range 0. 300.))
    (fun (d, w) -> Glitch.propagate ~delay:d ~width:w <= w +. 1e-9)

let test_amplitude_model () =
  let module Amp = Glitch.Amplitude in
  (* full-swing wide glitches reduce to Eq. 1 *)
  let g = Amp.full_swing ~vdd:1. 60. in
  let out = Amp.propagate ~delay:10. ~vdd:1. g in
  Alcotest.(check (float 1e-9)) "wide width = Eq1" (Glitch.propagate ~delay:10. ~width:60.)
    out.Amp.width;
  Alcotest.(check (float 1e-9)) "wide keeps full swing" 1. out.Amp.amplitude;
  (* marginal glitches lose amplitude *)
  let m = Amp.propagate ~delay:10. ~vdd:1. (Amp.full_swing ~vdd:1. 15.) in
  Alcotest.(check bool) "marginal loses amplitude" true (m.Amp.amplitude < 1.);
  (* sub-threshold amplitude means zero effective width *)
  let dead = { Amp.amplitude = 0.4; width = 50. } in
  Alcotest.(check (float 0.)) "dead glitch" 0. (Amp.effective_width ~vdd:1. dead);
  (* a degraded glitch dies faster in a chain than Eq. 1 predicts *)
  let delays = Array.make 6 10. in
  let eq1 = Glitch.chain ~delays ~width:19. in
  let amp =
    Amp.effective_width ~vdd:1.
      (Amp.chain ~delays ~vdd:1. (Amp.full_swing ~vdd:1. 19.))
  in
  Alcotest.(check bool) "amplitude model at most Eq1" true (amp <= eq1 +. 1e-9);
  (* killed glitches stay killed *)
  let z = Amp.propagate ~delay:10. ~vdd:1. { Amp.amplitude = 0.3; width = 30. } in
  Alcotest.(check (float 0.)) "no resurrection" 0. z.Amp.width

let amplitude_never_amplifies_prop =
  QCheck.Test.make ~name:"amplitude model never exceeds Eq-1 width" ~count:300
    QCheck.(pair (float_range 1. 50.) (float_range 0. 150.))
    (fun (d, w) ->
      let module Amp = Glitch.Amplitude in
      let out = Amp.propagate ~delay:d ~vdd:1. (Amp.full_swing ~vdd:1. w) in
      Amp.effective_width ~vdd:1. out
      <= Glitch.propagate ~delay:d ~width:w +. 1e-9
      && out.Amp.amplitude >= 0.
      && out.Amp.amplitude <= 1. +. 1e-9)

let test_chain () =
  Alcotest.(check (float 1e-9)) "chain"
    (Glitch.propagate ~delay:20. ~width:(Glitch.propagate ~delay:10. ~width:30.))
    (Glitch.chain ~delays:[| 10.; 20. |] ~width:30.);
  Alcotest.(check bool) "survives" true (Glitch.survives ~delay:10. ~width:10.);
  Alcotest.(check bool) "dies" false (Glitch.survives ~delay:10. ~width:9.)

(* ---------------- analysis ---------------- *)

let quick_config =
  { Analysis.default_config with Analysis.vectors = 2000; seed = 4 }

let c17_setup () =
  let c = Ser_circuits.Iscas.c17 () in
  let lib = L.create () in
  let asg = A.uniform lib c in
  (c, lib, asg)

let test_sample_widths () =
  let ws = Analysis.sample_widths quick_config in
  Alcotest.(check int) "ten samples" 10 (Array.length ws);
  Alcotest.(check (float 1e-9)) "top is max_sample_width"
    quick_config.Analysis.max_sample_width
    ws.(9);
  for i = 0 to 8 do
    Alcotest.(check bool) "ascending" true (ws.(i) < ws.(i + 1))
  done

let test_run_basic () =
  let c, lib, asg = c17_setup () in
  let r = Analysis.run ~config:quick_config lib asg in
  Alcotest.(check bool) "positive total" true (r.Analysis.total > 0.);
  (* inputs contribute nothing *)
  Array.iter
    (fun id ->
      Alcotest.(check (float 0.)) "PI zero" 0. r.Analysis.unreliability.(id))
    c.Circuit.inputs;
  (* total is the sum of per-gate terms *)
  let s = Array.fold_left ( +. ) 0. r.Analysis.unreliability in
  Alcotest.(check bool) "sum consistency" true
    (Float.abs (s -. r.Analysis.total) /. r.Analysis.total < 1e-9)

let test_po_gate_width_identity () =
  (* W_jj = w_j for a primary-output gate (step ii + iv of the paper) *)
  let c, lib, asg = c17_setup () in
  let r = Analysis.run ~config:quick_config lib asg in
  Array.iteri
    (fun pos id ->
      Alcotest.(check (float 1e-9)) "W_jj = w_j" r.Analysis.gen_width.(id)
        r.Analysis.expected_width.(id).(pos))
    c.Circuit.outputs

let test_expected_width_bounded () =
  let _, lib, asg = c17_setup () in
  let r = Analysis.run ~config:quick_config lib asg in
  Array.iter
    (fun row ->
      Array.iter
        (fun w ->
          Alcotest.(check bool) "non-negative" true (w >= 0.);
          Alcotest.(check bool) "bounded by top sample" true
            (w <= quick_config.Analysis.max_sample_width +. 1e-6))
        row)
    r.Analysis.expected_width

let test_pi_weight_normalisation () =
  (* sum_s pi_isj * P_sj = P_ij -- the property Eq. 2 is built to satisfy *)
  let c = Ser_circuits.Iscas.load "c432" in
  let lib = L.create () in
  let asg = A.uniform lib c in
  let r = Analysis.run ~config:quick_config lib asg in
  let p = r.Analysis.masking.Analysis.path_probs.Ser_logicsim.Probs.p in
  let checked = ref 0 in
  Array.iter
    (fun (nd : Circuit.node) ->
      if
        nd.Circuit.kind <> Gate.Input
        && (not (Circuit.is_output c nd.Circuit.id))
        && !checked < 40
      then begin
        let succs =
          Array.to_list nd.Circuit.fanout |> List.sort_uniq compare
        in
        Array.iteri
          (fun j pij ->
            if pij > 0.01 then begin
              let lhs =
                List.fold_left
                  (fun acc s ->
                    acc
                    +. Analysis.successor_weight r ~gate:nd.Circuit.id ~succ:s ~po:j
                       *. p.(s).(j))
                  0. succs
              in
              incr checked;
              Alcotest.(check (float 1e-9))
                (Printf.sprintf "gate %d po %d" nd.Circuit.id j)
                pij lhs
            end)
          p.(nd.Circuit.id)
      end)
    c.Circuit.nodes;
  Alcotest.(check bool) "checked some" true (!checked > 10)

let test_lemma1_wide_glitch () =
  (* Lemma 1: a very wide generated glitch reaches output j with
     expected width ww * P_ij. Force wide glitches with a huge charge
     and a modest top sample. *)
  let c, lib, asg = c17_setup () in
  let config =
    { quick_config with Analysis.charge = 5_000.; max_sample_width = 120. }
  in
  let r = Analysis.run ~config lib asg in
  let p = r.Analysis.masking.Analysis.path_probs.Ser_logicsim.Probs.p in
  let ws = Analysis.sample_widths config in
  let ww = ws.(Array.length ws - 1) in
  Array.iteri
    (fun id row ->
      if not (Circuit.is_input c id) then begin
        Alcotest.(check bool)
          (Printf.sprintf "gate %d glitch is wide (%.0f >= %.0f)" id
             r.Analysis.gen_width.(id) ww)
          true
          (r.Analysis.gen_width.(id) >= ww);
        Array.iteri
          (fun j wij ->
            let expect =
              if Circuit.output_index c id = Some j then
                r.Analysis.gen_width.(id)
              else ww *. p.(id).(j)
            in
            if expect > 1. then
              Alcotest.(check bool)
                (Printf.sprintf "gate %d po %d: %.1f vs %.1f" id j wij expect)
                true
                (Float.abs (wij -. expect) /. expect < 0.15))
          row
      end)
    r.Analysis.expected_width

let test_masking_reuse () =
  (* run_electrical with precomputed masking = run from scratch *)
  let _, lib, asg = c17_setup () in
  let c = A.circuit asg in
  let masking = Analysis.compute_masking quick_config c in
  let a = Analysis.run_electrical quick_config lib asg masking in
  let b = Analysis.run ~config:quick_config lib asg in
  Alcotest.(check (float 1e-9)) "same total" a.Analysis.total b.Analysis.total

let test_charge_monotone () =
  let _, lib, asg = c17_setup () in
  let c = A.circuit asg in
  let masking = Analysis.compute_masking quick_config c in
  let u q =
    (Analysis.run_electrical { quick_config with Analysis.charge = q } lib asg
       masking).Analysis.total
  in
  Alcotest.(check bool) "more charge more unreliability" true
    (u 4. < u 16. && u 16. < u 64.)

let test_naive_split_differs () =
  let c = Ser_circuits.Iscas.load "c432" in
  let lib = L.create () in
  let asg = A.uniform lib c in
  let masking = Analysis.compute_masking quick_config c in
  let exact = Analysis.run_electrical quick_config lib asg masking in
  let naive =
    Analysis.run_electrical { quick_config with Analysis.split = Analysis.Naive }
      lib asg masking
  in
  Alcotest.(check bool) "splits differ" true
    (Float.abs (exact.Analysis.total -. naive.Analysis.total)
     /. exact.Analysis.total
    > 1e-3)

(* ---------------- measured mode ---------------- *)

let test_measured_po_strike () =
  (* striking a PO gate yields exactly its generated width at that PO *)
  let c, lib, asg = c17_setup () in
  let timing = Ser_sta.Timing.analyze lib asg in
  let po = c.Circuit.outputs.(0) in
  let vec = [| true; true; true; true; true |] in
  let r = Measured.strike_widths lib asg ~timing ~input_values:vec ~charge:16. ~gate:po in
  let w_at_po = List.assoc 0 r.Measured.po_widths in
  Alcotest.(check bool) "positive width at own latch" true (w_at_po > 0.)

let test_measured_logical_masking () =
  (* gate 6 ("11" = NAND(3,6)) is masked under 1,0,1,1,0 (checked by
     the transient simulator too, in test_spice) *)
  let c, lib, asg = c17_setup () in
  let timing = Ser_sta.Timing.analyze lib asg in
  let vec = [| true; false; true; true; false |] in
  let r = Measured.strike_widths lib asg ~timing ~input_values:vec ~charge:16. ~gate:6 in
  List.iter
    (fun (_, w) -> Alcotest.(check (float 0.)) "masked" 0. w)
    r.Measured.po_widths;
  ignore c

let test_measured_unreliability_tracks_analysis () =
  let c = Ser_circuits.Iscas.load "c432" in
  let lib = L.create () in
  let asg = A.uniform lib c in
  let analysis = Analysis.run ~config:quick_config lib asg in
  let measured = Measured.unreliability ~vectors:60 lib asg in
  let ratio = measured /. analysis.Analysis.total in
  Alcotest.(check bool)
    (Printf.sprintf "same scale (ratio %.2f)" ratio)
    true
    (ratio > 0.5 && ratio < 2.0)

let test_measured_per_gate_sums () =
  let _, lib, asg = c17_setup () in
  let per = Measured.per_gate_unreliability ~vectors:10 lib asg in
  let total = Measured.unreliability ~vectors:10 lib asg in
  Alcotest.(check (float 1e-6)) "sum = total" total (Array.fold_left ( +. ) 0. per)

let test_analytic_masking_backend () =
  let _, lib, asg = c17_setup () in
  let cfg = { quick_config with Analysis.masking_backend = Analysis.Analytic_masking } in
  let a = Analysis.run ~config:cfg lib asg in
  let b = Analysis.run ~config:quick_config lib asg in
  Alcotest.(check bool) "positive" true (a.Analysis.total > 0.);
  let ratio = a.Analysis.total /. b.Analysis.total in
  Alcotest.(check bool)
    (Printf.sprintf "same scale as MC (ratio %.2f)" ratio)
    true
    (ratio > 0.7 && ratio < 1.4)

let test_biased_pi_config () =
  (* biasing inputs toward the NAND controlling value (0) raises the
     sensitization of the c17 internals and changes U *)
  let _, lib, asg = c17_setup () in
  let cfg_biased =
    { quick_config with Analysis.pi_probs = Some (Array.make 5 0.9) }
  in
  let a = Analysis.run ~config:cfg_biased lib asg in
  let b = Analysis.run ~config:quick_config lib asg in
  Alcotest.(check bool) "bias changes the answer" true
    (Float.abs (a.Analysis.total -. b.Analysis.total) /. b.Analysis.total > 0.02);
  (* static probabilities reflect the bias *)
  Alcotest.(check (float 1e-9)) "p at input" 0.9
    a.Analysis.masking.Analysis.probs.(0)

(* ---------------- ser rate ---------------- *)

let test_latch_probability () =
  Alcotest.(check (float 1e-9)) "proportional" 0.25
    (Aserta.Ser_rate.latch_probability ~clock_period:200. 50.);
  Alcotest.(check (float 1e-9)) "saturates" 1.
    (Aserta.Ser_rate.latch_probability ~clock_period:100. 250.);
  Alcotest.(check (float 1e-9)) "negative clamps" 0.
    (Aserta.Ser_rate.latch_probability ~clock_period:100. (-5.));
  try
    ignore (Aserta.Ser_rate.latch_probability ~clock_period:0. 5.);
    Alcotest.fail "bad clock accepted"
  with Invalid_argument _ -> ()

let test_ser_rate_basic () =
  let _, lib, asg = c17_setup () in
  let analysis = Analysis.run ~config:quick_config lib asg in
  let rate = Aserta.Ser_rate.run lib asg analysis in
  Alcotest.(check bool) "positive total" true (rate.Aserta.Ser_rate.total > 0.);
  Alcotest.(check (float 1e-9)) "per-gate sums"
    rate.Aserta.Ser_rate.total
    (Ser_util.Floatx.sum rate.Aserta.Ser_rate.per_gate);
  (* inputs contribute nothing *)
  Alcotest.(check (float 0.)) "PI zero" 0. rate.Aserta.Ser_rate.per_gate.(0)

let test_ser_rate_monotone_in_slope () =
  (* a harsher spectrum (bigger Qs = more high-charge strikes) raises the rate *)
  let _, lib, asg = c17_setup () in
  let analysis = Analysis.run ~config:quick_config lib asg in
  let rate qs =
    (Aserta.Ser_rate.run
       ~spectrum:{ Aserta.Ser_rate.default_spectrum with Aserta.Ser_rate.q_slope = qs }
       lib asg analysis)
      .Aserta.Ser_rate.total
  in
  Alcotest.(check bool) "monotone in q_slope" true (rate 3. < rate 6. && rate 6. < rate 12.)

let test_ser_rate_monotone_in_clock () =
  (* a slower clock means a wider latching window fraction... actually a
     LONGER period lowers the capture probability of a fixed width *)
  let _, lib, asg = c17_setup () in
  let analysis = Analysis.run ~config:quick_config lib asg in
  let rate t =
    (Aserta.Ser_rate.run ~clock_period:t lib asg analysis).Aserta.Ser_rate.total
  in
  Alcotest.(check bool) "faster clock more captures" true (rate 200. > rate 800.)

let test_ser_rate_validation () =
  let _, lib, asg = c17_setup () in
  let analysis = Analysis.run ~config:quick_config lib asg in
  let bad spectrum =
    try
      ignore (Aserta.Ser_rate.run ~spectrum lib asg analysis);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "bad range" true
    (bad { Aserta.Ser_rate.default_spectrum with Aserta.Ser_rate.q_min = 10.; q_max = 5. });
  Alcotest.(check bool) "bad points" true
    (bad { Aserta.Ser_rate.default_spectrum with Aserta.Ser_rate.n_points = 1 })

let test_expected_width_at () =
  let c, lib, asg = c17_setup () in
  let r = Analysis.run ~config:quick_config lib asg in
  let width_at id =
    Analysis.width_at ~samples:r.Analysis.samples
      ~own_po:c.Circuit.po_pos.(id) ~rows:r.Analysis.tables.(id)
  in
  (* identity at a PO gate's own position *)
  let po = c.Circuit.outputs.(0) in
  Alcotest.(check (float 1e-9)) "PO identity" 123. (width_at po ~po:0 123.);
  (* consistency with the stored W_ij at the analysed generated width *)
  Array.iteri
    (fun id row ->
      if not (Circuit.is_input c id) then
        Array.iteri
          (fun j wij ->
            Alcotest.(check (float 1e-6))
              (Printf.sprintf "gate %d po %d" id j)
              wij
              (width_at id ~po:j r.Analysis.gen_width.(id)))
          row)
    r.Analysis.expected_width

let test_measured_rejects_pi () =
  let _, lib, asg = c17_setup () in
  let timing = Ser_sta.Timing.analyze lib asg in
  try
    ignore
      (Measured.strike_widths lib asg ~timing
         ~input_values:(Array.make 5 false) ~charge:16. ~gate:0);
    Alcotest.fail "PI strike accepted"
  with Invalid_argument _ -> ()

(* ---------------- kernels vs the reference pass ---------------- *)

(* run_electrical's hoisted kernels (per-gate contexts, one Eq-1
   bracket per gate delay, one interpolation bracket per gate, dead
   outputs as literal zeros) against the successor-walking reference in
   Electrical_oracle: every table entry, W_ij, U_i and the total must
   have the same bits. *)
let bits = Int64.bits_of_float

let same_row a b =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> bits x = bits y) a b

let same_matrix a b = Array.length a = Array.length b && Array.for_all2 same_row a b

let matches_oracle ~split ~n_samples lib asg masking =
  let config = { quick_config with Analysis.split; n_samples } in
  let a = Analysis.run_electrical config lib asg masking in
  let o = Electrical_oracle.run_electrical config lib asg masking in
  Array.length a.Analysis.tables = Array.length o.Electrical_oracle.tables
  && Array.for_all2 same_matrix a.Analysis.tables o.Electrical_oracle.tables
  && same_row a.Analysis.gen_width o.Electrical_oracle.gen_width
  && same_matrix a.Analysis.expected_width o.Electrical_oracle.expected_width
  && same_row a.Analysis.unreliability o.Electrical_oracle.unreliability
  && bits a.Analysis.total = bits o.Electrical_oracle.total

let kernels_match_oracle_prop =
  QCheck.Test.make ~count:24
    ~name:"run_electrical = successor-walking reference, bit for bit"
    (QCheck.pair Circuit_gen.arb Circuit_gen.electrical)
    (fun ((seed, n_moves, n_gates, depth), (split, n_samples)) ->
      let c = Circuit_gen.circuit ~seed ~n_gates ~depth in
      let lib = L.create () in
      let asg = A.uniform lib c in
      Circuit_gen.perturb ~seed ~n:(4 * n_moves) lib c asg;
      let masking = Analysis.compute_masking quick_config c in
      matches_oracle ~split ~n_samples lib asg masking)

let test_kernels_match_oracle_iscas () =
  let lib = L.create () in
  List.iter
    (fun name ->
      let c = Ser_circuits.Iscas.load name in
      let asg = A.uniform lib c in
      Circuit_gen.perturb ~seed:5 ~n:20 lib c asg;
      let masking = Analysis.compute_masking quick_config c in
      List.iter
        (fun split ->
          List.iter
            (fun n_samples ->
              Alcotest.(check bool)
                (Printf.sprintf "%s, %d samples, %s" name n_samples
                   (match split with
                   | Analysis.Normalized -> "normalized"
                   | Analysis.Naive -> "naive"))
                true
                (matches_oracle ~split ~n_samples lib asg masking))
            Circuit_gen.n_samples)
        Circuit_gen.splits)
    [ "c17"; "c432" ]

let () =
  Alcotest.run "aserta"
    [
      ( "eq1",
        [
          Alcotest.test_case "regimes" `Quick test_eq1_regimes;
          QCheck_alcotest.to_alcotest eq1_monotone_prop;
          QCheck_alcotest.to_alcotest eq1_contraction_prop;
          Alcotest.test_case "chain" `Quick test_chain;
          Alcotest.test_case "amplitude model" `Quick test_amplitude_model;
          QCheck_alcotest.to_alcotest amplitude_never_amplifies_prop;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "sample widths" `Quick test_sample_widths;
          Alcotest.test_case "run basics" `Quick test_run_basic;
          Alcotest.test_case "PO width identity" `Quick test_po_gate_width_identity;
          Alcotest.test_case "widths bounded" `Quick test_expected_width_bounded;
          Alcotest.test_case "Eq-2 normalisation" `Slow test_pi_weight_normalisation;
          Alcotest.test_case "Lemma 1 (wide glitch)" `Quick test_lemma1_wide_glitch;
          Alcotest.test_case "masking reuse" `Quick test_masking_reuse;
          Alcotest.test_case "charge monotone" `Quick test_charge_monotone;
          Alcotest.test_case "naive split differs" `Slow test_naive_split_differs;
          Alcotest.test_case "analytic masking backend" `Quick test_analytic_masking_backend;
          Alcotest.test_case "biased inputs" `Quick test_biased_pi_config;
        ] );
      ( "kernels",
        [
          QCheck_alcotest.to_alcotest kernels_match_oracle_prop;
          Alcotest.test_case "c17 and c432 match the reference" `Quick
            test_kernels_match_oracle_iscas;
        ] );
      ( "ser_rate",
        [
          Alcotest.test_case "latch probability" `Quick test_latch_probability;
          Alcotest.test_case "basics" `Quick test_ser_rate_basic;
          Alcotest.test_case "spectrum slope" `Quick test_ser_rate_monotone_in_slope;
          Alcotest.test_case "clock period" `Quick test_ser_rate_monotone_in_clock;
          Alcotest.test_case "validation" `Quick test_ser_rate_validation;
          Alcotest.test_case "expected_width_at" `Quick test_expected_width_at;
        ] );
      ( "measured",
        [
          Alcotest.test_case "PO strike" `Quick test_measured_po_strike;
          Alcotest.test_case "logical masking" `Quick test_measured_logical_masking;
          Alcotest.test_case "tracks analysis" `Slow test_measured_unreliability_tracks_analysis;
          Alcotest.test_case "per-gate sums" `Quick test_measured_per_gate_sums;
          Alcotest.test_case "rejects PI" `Quick test_measured_rejects_pi;
        ] );
    ]
