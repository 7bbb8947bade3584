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
   analysis of the final assignment. *)
let incremental_equals_scratch_prop =
  QCheck.Test.make ~count:12
    ~name:"incremental = from-scratch after 1-5 random swaps"
    Circuit_gen.arb
    (fun (seed, n_swaps, n_gates, depth) ->
      let c = Circuit_gen.circuit ~seed ~n_gates ~depth in
      let lib = Library.create () in
      let asg = Assignment.uniform lib c in
      let masking = Analysis.compute_masking config c in
      let e = Incr.create ~config lib asg masking in
      let rng = Ser_rng.Rng.create (seed + 17) in
      let gates = non_inputs c in
      for _ = 1 to n_swaps do
        let g, cand = Circuit_gen.random_move rng lib c gates in
        Assignment.set asg g cand;
        Incr.set_cell e g cand
      done;
      let a = Analysis.run_electrical config lib asg masking in
      let t = Timing.analyze ~env:config.Analysis.env lib asg in
      same_arr t.Timing.arrival (Incr.timing e).Timing.arrival
      && same_arr a.Analysis.unreliability
           (Array.init (Circuit.node_count c) (Incr.unreliability e))
      && bits a.Analysis.total = bits (Incr.total e)
      && bits t.Timing.critical_delay = bits (Incr.critical_delay e))

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
  Alcotest.(check bool) "cutoffs actually fire" true (st.Incr.sta_cutoff > 0)

let test_full_rebuild_path () =
  let c, lib, masking = Lazy.force setup in
  let asg = Assignment.uniform lib c in
  let e = Incr.create ~config lib asg masking in
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
  Incr.update e !batch;
  Alcotest.(check bool) "took the rebuild path" true
    ((Incr.stats e).Incr.full_rebuilds >= 1);
  check_matches_scratch ~what:"after rebuild" lib masking asg e

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

let test_memo_transparent () =
  let c, lib, masking = Lazy.force setup in
  let asg = Assignment.uniform lib c in
  let memo = Incr.Memo.create () in
  let e1 = Incr.create ~memo ~config lib asg masking in
  let e2 = Incr.create ~memo ~config lib (Assignment.copy asg) masking in
  let g = (non_inputs c).(9) in
  let cands = variants_of lib c g in
  let other =
    Array.to_list cands
    |> List.find (fun p -> not (Cell_params.equal p (Incr.cell e1 g)))
  in
  Incr.set_cell e1 g other;
  Incr.set_cell e2 g other;
  (* the second engine hits the shared memo yet gets identical bits *)
  let m1 = Incr.metrics e1 and m2 = Incr.metrics e2 in
  Alcotest.(check bool) "memo does not change results" true
    (bits m1.Incr.m_unreliability = bits m2.Incr.m_unreliability
    && bits m1.Incr.m_delay = bits m2.Incr.m_delay);
  let s = Incr.memo_stats e2 in
  Alcotest.(check bool) "shared memo hit" true (s.Incr.Memo.hits > 0)

let test_noop_and_validation () =
  let c, lib, masking = Lazy.force setup in
  let asg = Assignment.uniform lib c in
  let e = Incr.create ~config lib asg masking in
  let g = (non_inputs c).(0) in
  Incr.set_cell e g (Incr.cell e g);
  Alcotest.(check int) "no-op does not count" 0 (Incr.stats e).Incr.updates;
  Alcotest.check_raises "primary input rejected"
    (Invalid_argument "Incr.update: primary input") (fun () ->
      Incr.set_cell e c.Circuit.inputs.(0) (Incr.cell e g))

(* -------------- optimizer modes produce identical runs -------------- *)

let test_optimizer_modes_identical () =
  let c, lib, masking = Lazy.force setup in
  let baseline = Assignment.uniform lib c in
  let cfg mode =
    {
      Opt.default_config with
      Opt.aserta = config;
      eval_mode = mode;
      max_evals = 10;
      annealing_steps = 8;
      greedy_passes = 1;
      greedy_gates = 10;
    }
  in
  let rf = Opt.optimize ~config:(cfg Opt.Full_recompute) ~masking lib baseline in
  let ri = Opt.optimize ~config:(cfg Opt.Incremental) ~masking lib baseline in
  Alcotest.(check int) "same eval count" rf.Opt.evals ri.Opt.evals;
  Alcotest.(check (list (float 0.)))
    "same cost trace" rf.Opt.cost_trace ri.Opt.cost_trace;
  List.iter2
    (fun a b -> Alcotest.(check bool) "trace bitwise" true (bits a = bits b))
    rf.Opt.cost_trace ri.Opt.cost_trace;
  let mf = rf.Opt.optimized_metrics and mi = ri.Opt.optimized_metrics in
  Alcotest.(check bool) "same optimized metrics" true
    (bits mf.Cost.unreliability = bits mi.Cost.unreliability
    && bits mf.Cost.delay = bits mi.Cost.delay
    && bits mf.Cost.energy = bits mi.Cost.energy
    && bits mf.Cost.area = bits mi.Cost.area);
  Array.iter
    (fun g ->
      Alcotest.(check bool) "same optimized cell" true
        (Cell_params.equal
           (Assignment.get rf.Opt.optimized g)
           (Assignment.get ri.Opt.optimized g)))
    (non_inputs c)

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
          Alcotest.test_case "memo transparency" `Quick test_memo_transparent;
          Alcotest.test_case "no-ops and validation" `Quick
            test_noop_and_validation;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "eval modes bit-identical" `Quick
            test_optimizer_modes_identical;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest incremental_equals_scratch_prop ] );
    ]
