(* Paper harness: regenerates every table and figure of the paper plus
   the ablations and extension studies from DESIGN.md, and carries the
   SERTOPT engine checks. Performance is measured by perfbench/.

   Usage:
     dune exec bench/main.exe                      -- everything, quick profile
     dune exec bench/main.exe -- fig1              -- one experiment
     dune exec bench/main.exe -- table1-full       -- paper-scale budgets
     dune exec bench/main.exe -- -j 2 sertopt-smoke -- serpp tier check, CI size *)

let section title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '=')

let fig1 () =
  section "Figure 1 (generated glitch width vs gate knobs)";
  print_string (Ser_repro.Fig12.render (Ser_repro.Fig12.fig1 ()))

let fig2 () =
  section "Figure 2 (propagated glitch width vs gate knobs)";
  print_string (Ser_repro.Fig12.render (Ser_repro.Fig12.fig2 ()))

let fig3 ?(vectors = 5) () =
  section "Figure 3 (ASERTA vs golden transient, per-gate unreliability)";
  print_string (Ser_repro.Fig3.render (Ser_repro.Fig3.run ~vectors ()))

let table1 ?(effort = Ser_repro.Table1.Quick) ?(with_golden = false) ?only () =
  section "Table 1 (SERTOPT optimization results)";
  print_string
    (Ser_repro.Table1.render (Ser_repro.Table1.run ~effort ~with_golden ?only ()))

let runtime () =
  section "Runtime comparison (Section 5)";
  print_string (Ser_repro.Runtime.render (Ser_repro.Runtime.run ()))

let alternatives () =
  section "Extension: hardening alternatives (TMR / CED vs SERTOPT)";
  print_string (Ser_repro.Alternatives.render (Ser_repro.Alternatives.run ()))

let variation () =
  section "Extension: process-variation robustness";
  print_string (Ser_repro.Variation.render (Ser_repro.Variation.run ()))

let ser_rate () =
  section "Extension: charge-spectrum SER (FIT)";
  print_string (Ser_repro.Rate_study.render (Ser_repro.Rate_study.run ()))

let pipeline () =
  section "Extension: pipeline trends (frequency & super-pipelining)";
  print_string (Ser_repro.Pipeline_study.render (Ser_repro.Pipeline_study.run ()))

let ablations () =
  section "Ablation: Eq-2 successor split";
  print_string (Ser_repro.Ablation.pi_split ());
  section "Ablation: sample glitch widths";
  print_string (Ser_repro.Ablation.sample_count ());
  section "Ablation: optimizer composition";
  print_string (Ser_repro.Ablation.optimizer_variants ());
  section "Ablation: P_ij vector convergence";
  print_string (Ser_repro.Ablation.vector_convergence ());
  section "Ablation: injected charge";
  print_string (Ser_repro.Ablation.charge_sweep ());
  section "Ablation: masking backend";
  print_string (Ser_repro.Ablation.masking_backend ());
  section "Ablation: glitch propagation model";
  print_string (Ser_repro.Ablation.glitch_model ())

(* ------------------------------------------------------------------ *)
(* SERTOPT: greedy-menu tiering (serpp prefilter) against exact menus  *)
(* ------------------------------------------------------------------ *)

(* Check-only: the serpp prefilter must save exact evaluations without
   moving the final cost. A failed check prints FATAL and exits 1.
   Timings live in perfbench/. *)
let sertopt_check ?(smoke = false) () =
  let module Opt = Sertopt.Optimizer in
  let module Cost = Sertopt.Cost in
  let module Analysis = Aserta.Analysis in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "FATAL: %s\n" msg;
        exit 1)
      fmt
  in
  (* tiered greedy-menu evaluation: serpp prefilter (top-6 of every
     menu measured exactly) against exact menus, same seed and config
     otherwise; masking is assignment-independent, so it is computed
     once and shared by both runs. The prefilter must cut exact
     evaluations at least 2x on the big case while landing within 5% of
     the non-tiered final cost — the documented tolerance for
     --eval-tier serpp. *)
  section "SERTOPT greedy-menu tiering: exact menus vs serpp prefilter";
  let name, vectors, max_evals, greedy_gates =
    if smoke then ("c432", 300, 4, 4) else ("c2670", 400, 8, 24)
  in
  let c = Ser_circuits.Iscas.load name in
  let lib = Ser_cell.Library.create () in
  let baseline = Ser_sta.Assignment.uniform lib c in
  let aserta = { Analysis.default_config with Analysis.vectors } in
  let masking = Analysis.compute_masking aserta c in
  let run tier =
    let config =
      {
        Opt.default_config with
        Opt.aserta;
        tier;
        max_evals;
        greedy_gates;
        greedy_passes = 1;
        annealing_steps = 0;
      }
    in
    Opt.optimize ~config ~masking lib baseline
  in
  let saved_counter () =
    match Ser_obs.Obs.Metrics.find_counter "sertopt.exact_evals_saved" with
    | Some ctr -> Ser_obs.Obs.Metrics.value ctr
    | None -> 0
  in
  let re = run Opt.Exact in
  let saved0 = saved_counter () in
  let rt = run (Opt.Serpp_prefilter 6) in
  let exact_saved = saved_counter () - saved0 in
  let eval_ratio =
    float_of_int re.Opt.evals /. float_of_int (max 1 rt.Opt.evals)
  in
  let cost_of (r : Opt.result) =
    Cost.eval ~baseline:re.Opt.baseline_metrics r.Opt.optimized_metrics
  in
  let cost_exact = cost_of re in
  let cost_rel_delta =
    (cost_of rt -. cost_exact) /. Float.max 1e-9 (Float.abs cost_exact)
  in
  if (not smoke) && eval_ratio < 2. then
    fail "%s tiering: exact-eval reduction %.2fx below the 2x floor" name
      eval_ratio;
  if Float.abs cost_rel_delta > 0.05 then
    fail "%s tiering: tiered final cost drifts %.1f%% from exact (tolerance 5%%)"
      name (100. *. cost_rel_delta);
  Printf.printf
    "  %-8s exact %4d evals   tiered %4d evals   %.2fx fewer exact evals \
     (saved %d, cost drift %+.2f%%)\n%!"
    name re.Opt.evals rt.Opt.evals eval_ratio exact_saved
    (100. *. cost_rel_delta)

let all () =
  fig1 ();
  fig2 ();
  fig3 ();
  table1 ();
  runtime ();
  ablations ();
  alternatives ();
  variation ();
  ser_rate ();
  pipeline ()

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* a leading "-j N" pins the pool width for every target *)
  let args =
    match args with
    | "-j" :: n :: rest ->
      (match int_of_string_opt n with
      | Some j when j >= 0 -> Ser_par.Par.set_jobs j
      | _ ->
        Printf.eprintf "bad -j value %S (want an integer >= 0)\n" n;
        exit 2);
      rest
    | _ -> args
  in
  match args with
  | [] | [ "all" ] -> all ()
  | [ "fig1" ] -> fig1 ()
  | [ "fig2" ] -> fig2 ()
  | [ "fig3" ] -> fig3 ~vectors:10 ()
  | [ "table1" ] -> table1 ()
  | [ "table1-golden" ] -> table1 ~with_golden:true ()
  | [ "table1-full" ] -> table1 ~effort:Ser_repro.Table1.Full ()
  | "table1" :: names -> table1 ~only:names ()
  | [ "runtime" ] -> runtime ()
  | [ "ablations" ] -> ablations ()
  | [ "ablation-pi" ] -> print_string (Ser_repro.Ablation.pi_split ())
  | [ "ablation-samples" ] -> print_string (Ser_repro.Ablation.sample_count ())
  | [ "ablation-opt" ] -> print_string (Ser_repro.Ablation.optimizer_variants ())
  | [ "ablation-vectors" ] ->
    print_string (Ser_repro.Ablation.vector_convergence ())
  | [ "ablation-charge" ] -> print_string (Ser_repro.Ablation.charge_sweep ())
  | [ "ablation-masking" ] -> print_string (Ser_repro.Ablation.masking_backend ())
  | [ "ablation-model" ] -> print_string (Ser_repro.Ablation.glitch_model ())
  | [ "alternatives" ] -> alternatives ()
  | [ "variation" ] -> variation ()
  | [ "ser-rate" ] -> ser_rate ()
  | [ "pipeline" ] -> pipeline ()
  | [ "sertopt" ] -> sertopt_check ()
  | [ "sertopt-smoke" ] -> sertopt_check ~smoke:true ()
  | other ->
    Printf.eprintf
      "unknown bench target %s\n\
       usage: main.exe [-j N] TARGET\n\
       targets: all fig1 fig2 fig3 table1 [circuits...] table1-golden \
       table1-full runtime ablations \
       ablation-{pi,samples,opt,vectors,charge,masking,model} \
       alternatives variation ser-rate pipeline sertopt sertopt-smoke\n"
      (String.concat " " other);
    exit 2
