(* The incremental engine's contract is bit-identity, so these tests
   compare against the from-scratch pipeline with Int64.bits_of_float
   equality — not tolerances. *)

module Circuit = Ser_netlist.Circuit
module Library = Ser_cell.Library
module Assignment = Ser_sta.Assignment
module Timing = Ser_sta.Timing
module Analysis = Aserta.Analysis
module Cell_params = Ser_device.Cell_params
module Incr = Ser_incr.Incr
module Opt = Sertopt.Optimizer
module Cost = Sertopt.Cost

let bits = Int64.bits_of_float
let same_arr a b = Array.for_all2 (fun x y -> bits x = bits y) a b

let config = { Analysis.default_config with Analysis.vectors = 300 }

let non_inputs = Circuit_gen.non_inputs
let variants_of = Circuit_gen.variants_of

(* Full bitwise comparison of an engine against the from-scratch
   pipeline on the engine's current assignment. *)
let check_matches_scratch ?(what = "engine") lib masking asg (e : Incr.t) =
  let a = Analysis.run_electrical config lib asg masking in
  let s = Incr.snapshot e in
  let at = a.Analysis.timing and st = s.Analysis.timing in
  let chk name ok = Alcotest.(check bool) (what ^ ": " ^ name) true ok in
  chk "loads" (same_arr at.Timing.loads st.Timing.loads);
  chk "delays" (same_arr at.Timing.delays st.Timing.delays);
  chk "ramps" (same_arr at.Timing.ramps st.Timing.ramps);
  chk "arrival" (same_arr at.Timing.arrival st.Timing.arrival);
  chk "required" (same_arr at.Timing.required st.Timing.required);
  chk "slack" (same_arr at.Timing.slack st.Timing.slack);
  chk "critical" (bits at.Timing.critical_delay = bits st.Timing.critical_delay);
  chk "gen_width" (same_arr a.Analysis.gen_width s.Analysis.gen_width);
  chk "W_ij"
    (Array.for_all2 same_arr a.Analysis.expected_width s.Analysis.expected_width);
  chk "tables"
    (Array.for_all2
       (fun m1 m2 -> Array.for_all2 same_arr m1 m2)
       a.Analysis.tables s.Analysis.tables);
  chk "U_i" (same_arr a.Analysis.unreliability s.Analysis.unreliability);
  chk "total" (bits a.Analysis.total = bits s.Analysis.total)

(* ------------- qcheck: random circuits, random swap bursts ------------- *)

(* 1-5 single-gate swaps applied through set_cell on a random synthetic
   circuit must leave the engine bit-identical to a from-scratch
   analysis of the final assignment, under any Eq-2 split and sample
   grid (the ablations run the electrical pass under both) and under
   either objective: a spectrum handle's per-gate FIT and total must
   equal Ser_rate.run at the handle's clock on the from-scratch
   analysis. *)
let incremental_equals_scratch_prop =
  QCheck.Test.make ~count:12
    ~name:"incremental = from-scratch after 1-5 random swaps"
    (QCheck.triple Circuit_gen.arb Circuit_gen.electrical QCheck.bool)
    (fun ((seed, n_swaps, n_gates, depth), (split, n_samples), spectrum) ->
      let config = { config with Analysis.split; n_samples } in
      let c = Circuit_gen.circuit ~seed ~n_gates ~depth in
      let lib = Library.create () in
      let asg = Assignment.uniform lib c in
      let masking = Analysis.compute_masking config c in
      let clock_period =
        1.2 *. (Timing.analyze ~env:config.Analysis.env lib asg).Timing.critical_delay
      in
      let spectrum =
        if spectrum then Some Aserta.Ser_rate.default_spectrum else None
      in
      let rate =
        Option.map
          (fun spectrum -> Aserta.Ser_rate.quadrature ~spectrum ~clock_period ())
          spectrum
      in
      let e = Incr.create ?rate ~config lib asg masking in
      let rng = Ser_rng.Rng.create (seed + 17) in
      let gates = non_inputs c in
      for _ = 1 to n_swaps do
        let g, cand = Circuit_gen.random_move rng lib c gates in
        Assignment.set asg g cand;
        Incr.set_cell e g cand
      done;
      let a = Analysis.run_electrical config lib asg masking in
      let t = Timing.analyze ~env:config.Analysis.env lib asg in
      let n = Circuit.node_count c in
      let objective_matches =
        match spectrum with
        | None ->
          bits a.Analysis.total = bits (Incr.metrics e).Incr.m_unreliability
        | Some spectrum ->
          let r = Aserta.Ser_rate.run ~spectrum ~clock_period lib asg a in
          same_arr r.Aserta.Ser_rate.per_gate (Array.init n (Incr.fit e))
          && bits r.Aserta.Ser_rate.total
             = bits (Incr.metrics e).Incr.m_unreliability
      in
      same_arr t.Timing.arrival (Incr.timing e).Timing.arrival
      && same_arr a.Analysis.unreliability (Array.init n (Incr.unreliability e))
      && bits a.Analysis.total = bits (Incr.total e)
      && bits t.Timing.critical_delay = bits (Incr.critical_delay e)
      && objective_matches)

(* Every bit of a handle's state: timing, brackets, WS tables,
   estimates, generated and expected widths, FIT, the STA core and
   stats. *)
let fingerprint c e =
  let n = Circuit.node_count c in
  let s = Incr.snapshot e in
  let t = s.Analysis.timing in
  let fl a = List.map bits (Array.to_list a) in
  let ids = List.init n Fun.id in
  List.concat
    [
      fl t.Timing.loads; fl t.Timing.input_ramp; fl t.Timing.delays;
      fl t.Timing.ramps; fl t.Timing.arrival;
      [ bits t.Timing.critical_delay; bits (Incr.critical_delay e) ];
      fl s.Analysis.gen_width;
      List.concat_map fl (Array.to_list s.Analysis.expected_width);
      fl s.Analysis.unreliability;
      List.concat_map
        (fun m -> List.concat_map fl (Array.to_list m))
        (Array.to_list s.Analysis.tables);
      fl (Array.init n (Incr.fit e));
      List.concat_map
        (fun id ->
          let lo, fr = Incr.brackets e id in
          List.map Int64.of_int (Array.to_list lo) @ fl fr)
        ids;
    ]
  |> fun state ->
  let st = Incr.stats e in
  ( state,
    Circuit_gen.core_fingerprint (Incr.core e),
    { st with Ser_incr.Cone.updates = st.Ser_incr.Cone.updates } )

let same_metrics (a : Incr.metrics) (b : Incr.metrics) =
  bits a.Incr.m_unreliability = bits b.Incr.m_unreliability
  && bits a.Incr.m_delay = bits b.Incr.m_delay
  && bits a.Incr.m_energy = bits b.Incr.m_energy
  && bits a.Incr.m_area = bits b.Incr.m_area

(* A random gate's menu (capped as SERTOPT caps it) and one batch
   moving every gate (above Incr_sta.wants_rebuild's threshold, the
   wholesale path, on circuits of more than 8 gates). *)
let scoring_moves rng lib c gates e =
  let g = gates.(Ser_rng.Rng.int rng (Array.length gates)) in
  let menu =
    Opt.sample_menu ~cap:24 (Array.to_list (variants_of lib c g))
    |> List.map (fun p -> [ (g, p) ])
  in
  let everything =
    Array.to_list gates
    |> List.filter_map (fun g ->
           Array.to_list (variants_of lib c g)
           |> List.find_opt (fun p -> not (Cell_params.equal p (Incr.cell e g)))
           |> Option.map (fun p -> (g, p)))
  in
  menu @ [ everything ]

(* In-place scoring is fork scoring: on a random incumbent, every menu
   entry scored with [Incr.score] must return exactly the metrics of a
   fork after the same update, and the rollback must leave every bit of
   the handle (stats included) as it was before the move — under both
   objectives, and on the rebuild path too (which the c432 rebuild case
   also scores). *)
let in_place_score_prop =
  QCheck.Test.make ~count:10
    ~name:"in-place score = fork score, rollback restores every bit"
    (QCheck.pair Circuit_gen.arb QCheck.bool)
    (fun ((seed, n_swaps, n_gates, depth), spectrum) ->
      let c = Circuit_gen.circuit ~seed ~n_gates ~depth in
      let lib = Library.create () in
      let asg = Assignment.uniform lib c in
      let masking = Analysis.compute_masking config c in
      let rate =
        if not spectrum then None
        else
          let clock_period =
            1.2
            *. (Timing.analyze ~env:config.Analysis.env lib asg).Timing.critical_delay
          in
          Some
            (Aserta.Ser_rate.quadrature ~spectrum:Aserta.Ser_rate.default_spectrum
               ~clock_period ())
      in
      let e = Incr.create ?rate ~config lib asg masking in
      let rng = Ser_rng.Rng.create (seed + 31) in
      let gates = non_inputs c in
      for _ = 1 to n_swaps do
        let g, cand = Circuit_gen.random_move rng lib c gates in
        Incr.set_cell e g cand
      done;
      let before = fingerprint c e in
      let moves = scoring_moves rng lib c gates e in
      List.for_all
           (fun batch ->
             let f = Incr.fork e in
             Incr.update f batch;
             let got = Incr.score e batch Incr.metrics in
             same_metrics (Incr.metrics f) got && fingerprint c e = before)
           moves)

(* ------------------- directed engine tests (c432) ------------------- *)

let setup =
  lazy
    (let c = Ser_circuits.Iscas.load "c432" in
     let lib = Library.create () in
     let masking = Analysis.compute_masking config c in
     (c, lib, masking))

let test_swap_burst () =
  let c, lib, masking = Lazy.force setup in
  let asg = Assignment.uniform lib c in
  let e = Incr.create ~config lib asg masking in
  let rng = Ser_rng.Rng.create 7 in
  let gates = non_inputs c in
  for step = 1 to 30 do
    let g = gates.(Ser_rng.Rng.int rng (Array.length gates)) in
    let cands = variants_of lib c g in
    let cand = cands.(Ser_rng.Rng.int rng (Array.length cands)) in
    Assignment.set asg g cand;
    Incr.set_cell e g cand;
    if step mod 10 = 0 then
      check_matches_scratch ~what:(Printf.sprintf "step %d" step) lib masking
        asg e
  done;
  let st = Incr.stats e in
  Alcotest.(check bool) "cutoffs actually fire" true (st.Ser_incr.Cone.sta_cutoff > 0)

let test_full_rebuild_path () =
  let c, lib, masking = Lazy.force setup in
  let asg = Assignment.uniform lib c in
  let e = Incr.create ~config lib asg masking in
  (* a spectrum handle takes the same batch: its rebuild must refresh
     every gate's FIT at the handle's clock *)
  let spectrum = Aserta.Ser_rate.default_spectrum in
  let clock_period = 1.2 *. Incr.critical_delay e in
  let es =
    Incr.create
      ~rate:(Aserta.Ser_rate.quadrature ~spectrum ~clock_period ())
      ~config lib asg masking
  in
  let rng = Ser_rng.Rng.create 11 in
  let gates = non_inputs c in
  (* change over an eighth of the gates in one batch: must take the
     wholesale-rebuild path and still match from scratch *)
  let batch = ref [] in
  Array.iteri
    (fun k g ->
      if k mod 3 = 0 then begin
        let cands = variants_of lib c g in
        let cand = cands.(Ser_rng.Rng.int rng (Array.length cands)) in
        Assignment.set asg g cand;
        batch := (g, cand) :: !batch
      end)
    gates;
  (* scored in place first: the rebuild under the undo log rolls back *)
  let scored =
    List.map
      (fun h ->
        let before = fingerprint c h in
        let m = Incr.score h !batch Incr.metrics in
        Alcotest.(check bool) "rebuild rolled back" true (fingerprint c h = before);
        m)
      [ e; es ]
  in
  Incr.update e !batch;
  Incr.update es !batch;
  Alcotest.(check bool) "in-place score of the rebuild = the update" true
    (List.for_all2 (fun m h -> same_metrics m (Incr.metrics h)) scored [ e; es ]);
  Alcotest.(check bool) "took the rebuild path" true
    ((Incr.stats e).Ser_incr.Cone.full_rebuilds >= 1
    && (Incr.stats es).Ser_incr.Cone.full_rebuilds >= 1);
  check_matches_scratch ~what:"after rebuild" lib masking asg e;
  let r =
    Aserta.Ser_rate.run ~spectrum ~clock_period lib asg
      (Analysis.run_electrical config lib asg masking)
  in
  Alcotest.(check bool) "spectrum: per-gate FIT after rebuild" true
    (same_arr r.Aserta.Ser_rate.per_gate
       (Array.init (Circuit.node_count c) (Incr.fit es)));
  Alcotest.(check bool) "spectrum: FIT total after rebuild" true
    (bits r.Aserta.Ser_rate.total = bits (Incr.metrics es).Incr.m_unreliability)

let test_sync_and_assignment_roundtrip () =
  let c, lib, masking = Lazy.force setup in
  let asg = Assignment.uniform lib c in
  let e = Incr.create ~config lib asg masking in
  let rng = Ser_rng.Rng.create 23 in
  let gates = non_inputs c in
  let target = Assignment.copy asg in
  for _ = 1 to 12 do
    let g = gates.(Ser_rng.Rng.int rng (Array.length gates)) in
    let cands = variants_of lib c g in
    Assignment.set target g cands.(Ser_rng.Rng.int rng (Array.length cands))
  done;
  Incr.sync e target;
  check_matches_scratch ~what:"after sync" lib masking target e;
  let back = Incr.assignment e in
  Array.iter
    (fun g ->
      Alcotest.(check bool) "assignment round-trips" true
        (Cell_params.equal (Assignment.get back g) (Assignment.get target g)))
    gates

let test_fork_isolation () =
  let c, lib, masking = Lazy.force setup in
  let asg = Assignment.uniform lib c in
  let e = Incr.create ~config lib asg masking in
  let before = Incr.metrics e in
  let f = Incr.fork e in
  let g = (non_inputs c).(5) in
  let cands = variants_of lib c g in
  let other =
    Array.to_list cands
    |> List.find (fun p -> not (Cell_params.equal p (Incr.cell f g)))
  in
  Incr.set_cell f g other;
  let after = Incr.metrics e in
  Alcotest.(check bool) "parent untouched by fork mutation" true
    (bits before.Incr.m_unreliability = bits after.Incr.m_unreliability
    && bits before.Incr.m_delay = bits after.Incr.m_delay
    && bits before.Incr.m_energy = bits after.Incr.m_energy
    && bits before.Incr.m_area = bits after.Incr.m_area);
  (* and the fork matches scratch on its own assignment *)
  let fasg = Assignment.copy asg in
  Assignment.set fasg g other;
  check_matches_scratch ~what:"fork" lib masking fasg f

let test_noop_and_validation () =
  let c, lib, masking = Lazy.force setup in
  let asg = Assignment.uniform lib c in
  let e = Incr.create ~config lib asg masking in
  let g = (non_inputs c).(0) in
  Incr.set_cell e g (Incr.cell e g);
  Alcotest.(check int) "no-op does not count" 0 (Incr.stats e).Ser_incr.Cone.updates;
  Alcotest.check_raises "primary input rejected"
    (Invalid_argument "Incr.update: primary input") (fun () ->
      Incr.set_cell e c.Circuit.inputs.(0) (Incr.cell e g))

(* ---------------- optimizer golden pins (c432) ---------------- *)

(* One small c432 optimize per objective, pinned bit for bit: the eval
   count, the improving-cost trace, the optimized metrics and the
   number of changed cells. The eval counts, traces and changed-cell
   counts were taken from the incremental optimizer running the
   direction search and one greedy pass, with the annealing stage it
   used to carry switched off. The metric pins are from-scratch numbers
   whatever the search path: the optimizer measures its returned
   assignment with [Cost.measure]. *)
let check_pins objective ~evals ~changed ~trace ~metrics () =
  let c, lib, masking = Lazy.force setup in
  let baseline = Assignment.uniform lib c in
  let cfg =
    {
      Opt.default_config with
      Opt.aserta = config;
      objective;
      max_evals = 10;
      greedy_passes = 1;
      greedy_gates = 10;
    }
  in
  let r = Opt.optimize ~config:cfg ~masking lib baseline in
  let hex l = List.map (Printf.sprintf "%h") l in
  Alcotest.(check int) "evals" evals r.Opt.evals;
  Alcotest.(check int) "changed cells" changed
    (Opt.knob_summary r).Opt.changed_gates;
  Alcotest.(check (list string)) "cost trace bits" (hex trace)
    (hex r.Opt.cost_trace);
  let m = r.Opt.optimized_metrics in
  Alcotest.(check (list string)) "optimized metric bits" (hex metrics)
    (hex [ m.Cost.unreliability; m.Cost.delay; m.Cost.energy; m.Cost.area ])

let test_pins_fixed_charge =
  check_pins Cost.Fixed_charge ~evals:250 ~changed:117
    ~trace:
      [ 0x1.9fff75a1593dep+0; 0x1.8c0133e37a89ap+0; 0x1.85c02d90ac95dp+0;
        0x1.8028f0371f1p+0; 0x1.7cde853af2f7fp+0; 0x1.759df2034d75ep+0;
        0x1.684db2e3df3f6p+0 ]
    ~metrics:
      [ 0x1.874cd7c45b558p+11; 0x1.6cfcc50f87107p+9; 0x1.51d777634c55ep+6;
        0x1.22fb36d7d386ap+9 ]

let test_pins_spectrum =
  check_pins (Cost.Charge_spectrum Aserta.Ser_rate.default_spectrum)
    ~evals:250 ~changed:152
    ~trace:
      [ 0x1.af7432c8a5f7ep+0; 0x1.a11ee28dd53bap+0; 0x1.9e425a873360dp+0;
        0x1.972861e575326p+0; 0x1.912ec2e4b35bfp+0; 0x1.8bee6dc1cb40bp+0;
        0x1.800550c55cecep+0 ]
    ~metrics:
      [ 0x1.0eb2e77c51ab6p+10; 0x1.8716c1c4aa014p+9; 0x1.c94449cc4a1b5p+6;
        0x1.6a8558a3957e4p+9 ]

let () =
  Alcotest.run "incr"
    [
      ( "engine",
        [
          Alcotest.test_case "swap burst matches scratch" `Quick test_swap_burst;
          Alcotest.test_case "large batch takes rebuild path" `Quick
            test_full_rebuild_path;
          Alcotest.test_case "sync + assignment round-trip" `Quick
            test_sync_and_assignment_roundtrip;
          Alcotest.test_case "fork isolation" `Quick test_fork_isolation;
          Alcotest.test_case "no-ops and validation" `Quick
            test_noop_and_validation;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "golden pins: fixed charge" `Quick
            test_pins_fixed_charge;
          Alcotest.test_case "golden pins: charge spectrum" `Quick
            test_pins_spectrum;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest incremental_equals_scratch_prop;
          QCheck_alcotest.to_alcotest in_place_score_prop;
        ] );
    ]
