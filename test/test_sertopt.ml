module Circuit = Ser_netlist.Circuit
module Gate = Ser_netlist.Gate
module L = Ser_cell.Library
module A = Ser_sta.Assignment
module T = Ser_sta.Timing
module P = Ser_device.Cell_params
module Matching = Sertopt.Matching
module Cost = Sertopt.Cost
module Opt = Sertopt.Optimizer

let lib_small () =
  L.create ~axes:(L.restrict ~vdds:[ 0.8; 1.0 ] ~vths:[ 0.2; 0.3 ] L.default_axes) ()

let quick_aserta = { Aserta.Analysis.default_config with Aserta.Analysis.vectors = 1500 }

(* ---------------- matching ---------------- *)

let vdd_ordering_ok c asg =
  (* every driver's VDD >= every reader's VDD *)
  let ok = ref true in
  Array.iter
    (fun (nd : Circuit.node) ->
      if nd.Circuit.kind <> Gate.Input then begin
        let v = (A.get asg nd.Circuit.id).P.vdd in
        Array.iter
          (fun f ->
            if not (Circuit.is_input c f) then
              if (A.get asg f).P.vdd < v -. 1e-9 then ok := false)
          nd.Circuit.fanin
      end)
    c.Circuit.nodes;
  !ok

let test_match_identity () =
  (* matching the baseline's own delays reproduces similar timing *)
  let c = Ser_circuits.Iscas.load "c432" in
  let lib = lib_small () in
  let asg = A.uniform lib c in
  let t0 = T.analyze lib asg in
  let matched = Matching.match_delays (Matching.context lib asg) ~targets:t0.T.delays in
  let t1 = T.analyze lib matched in
  Alcotest.(check bool)
    (Printf.sprintf "critical delay within 10%% (%.1f vs %.1f)"
       t1.T.critical_delay t0.T.critical_delay)
    true
    (Float.abs (t1.T.critical_delay -. t0.T.critical_delay)
     /. t0.T.critical_delay
    < 0.1)

let test_match_vdd_ordering () =
  let c = Ser_circuits.Iscas.load "c432" in
  let lib = L.create () in
  (* full menu incl. 1.2 V *)
  let asg = A.uniform lib c in
  let t0 = T.analyze lib asg in
  let rng = Ser_rng.Rng.create 12 in
  for _ = 1 to 5 do
    let targets =
      Array.map (fun d -> Float.max 0.5 (d +. Ser_rng.Rng.range rng (-15.) 25.)) t0.T.delays
    in
    let matched = Matching.match_delays (Matching.context lib asg) ~targets in
    Alcotest.(check bool) "VDD ordering holds" true (vdd_ordering_ok c matched)
  done

let test_match_slower_targets () =
  (* asking for uniformly slower gates must slow the circuit *)
  let c = Ser_circuits.Iscas.load "c432" in
  let lib = lib_small () in
  let asg = A.uniform lib c in
  let t0 = T.analyze lib asg in
  let targets = Array.map (fun d -> d *. 2.5) t0.T.delays in
  let matched = Matching.match_delays (Matching.context lib asg) ~targets in
  let t1 = T.analyze lib matched in
  Alcotest.(check bool) "slower" true (t1.T.critical_delay > 1.3 *. t0.T.critical_delay)

let test_match_max_size () =
  let c = Ser_circuits.Iscas.load "c432" in
  let lib = lib_small () in
  let asg = A.uniform lib c in
  let t0 = T.analyze lib asg in
  let targets = Array.map (fun d -> Float.max 0.5 (d *. 0.3)) t0.T.delays in
  let options = { Matching.default_options with Matching.max_size = 2. } in
  let matched = Matching.match_delays (Matching.context ~options lib asg) ~targets in
  A.fold_gates matched ~init:() ~f:(fun () _ cell ->
      Alcotest.(check bool) "size cap" true (cell.P.size <= 2.0 +. 1e-9))

(* ---------------- reference oracles ---------------- *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_cells c a b =
  let ok = ref true in
  for id = 0 to Circuit.node_count c - 1 do
    if not (Circuit.is_input c id) then
      if not (P.equal (A.get a id) (A.get b id)) then ok := false
  done;
  !ok

(* The list-based matching the context replaced: re-times the base
   assignment, rebuilds every gate's variant list and queries the
   library per candidate on every call. *)
let reference_match ?(options = Matching.default_options) lib asg ~targets =
  let c = A.circuit asg in
  let n = Circuit.node_count c in
  let ref_timing = T.analyze ~env:options.Matching.env lib asg in
  let result = A.copy asg in
  let loads = Array.make n 0. in
  Array.iter
    (fun po -> loads.(po) <- loads.(po) +. options.Matching.env.T.po_cap)
    c.Circuit.outputs;
  let min_vdd = Array.make n 0. in
  for id = n - 1 downto 0 do
    let nd = c.Circuit.nodes.(id) in
    if nd.Circuit.kind <> Gate.Input then begin
      let cands =
        L.variants lib nd.Circuit.kind (Array.length nd.Circuit.fanin)
        |> List.filter (fun (p : P.t) ->
               p.P.size <= options.Matching.max_size +. 1e-9
               && p.P.vdd >= min_vdd.(id) -. 1e-9)
      in
      let ramp = ref_timing.T.input_ramp.(id) in
      let target = targets.(id) in
      let scored =
        List.map
          (fun p ->
            let d = L.delay lib p ~input_ramp:ramp ~cload:loads.(id) in
            (Float.abs (d -. target), p))
          cands
      in
      let best_err =
        List.fold_left (fun acc (e, _) -> Float.min acc e) Float.max_float scored
      in
      let tie = Float.max 1. (best_err +. (0.1 *. target)) in
      let cell =
        match
          List.filter (fun (e, _) -> e <= tie) scored
          |> List.fold_left
               (fun best (_, p) ->
                 let a = L.area lib p in
                 match best with
                 | Some (ba, _) when ba <= a -> best
                 | Some _ | None -> Some (a, p))
               None
        with
        | Some (_, p) -> p
        | None -> A.get asg id
      in
      A.set result id cell;
      let cin = L.input_cap lib cell in
      Array.iter
        (fun f ->
          loads.(f) <- loads.(f) +. cin;
          if cell.P.vdd > min_vdd.(f) then min_vdd.(f) <- cell.P.vdd)
        nd.Circuit.fanin
    end
  done;
  result

(* The from-scratch size-for-speed the incremental core replaced: one
   full timing pass per trial. *)
let reference_size_for_speed ?(env = T.default_env) ?(max_size = 8.) lib c =
  let asg = A.uniform lib c in
  let sizes =
    List.filter (fun s -> s <= max_size +. 1e-9) (L.axes lib).L.sizes
    |> List.sort compare
  in
  let next_size s = List.find_opt (fun x -> x > s +. 1e-9) sizes in
  let continue = ref true in
  let iter = ref 0 in
  while !continue && !iter < 60 do
    incr iter;
    let timing = T.analyze ~env lib asg in
    let best = ref timing.T.critical_delay in
    let path = T.critical_path asg timing in
    let improved = ref false in
    Array.iter
      (fun id ->
        if not (Circuit.is_input c id) then begin
          let cell = A.get asg id in
          match next_size cell.P.size with
          | Some s ->
            A.set asg id { cell with P.size = s };
            let after = (T.analyze ~env lib asg).T.critical_delay in
            if after < !best -. 1e-9 then begin
              best := after;
              improved := true
            end
            else A.set asg id cell
          | None -> ()
        end)
      path;
    if not !improved then continue := false
  done;
  asg

let random_targets rng c (t0 : T.t) =
  Array.init (Circuit.node_count c) (fun id ->
      if Circuit.is_input c id then 0.
      else
        match Ser_rng.Rng.int rng 4 with
        | 0 -> 0.5
        | 1 -> t0.T.delays.(id) *. Ser_rng.Rng.range rng 0.2 4.
        | _ -> Float.max 0.5 (t0.T.delays.(id) +. Ser_rng.Rng.range rng (-20.) 40.))

let check_match_oracle ~what ?options lib base targets =
  let want = reference_match ?options lib base ~targets in
  let got = Matching.match_delays (Matching.context ?options lib base) ~targets in
  Alcotest.(check bool) (what ^ ": same cells as the list-based reference") true
    (same_cells (A.circuit base) want got)

let size_options = [ None; Some 2.; Some 0.5 ]

let options_of = function
  | None -> None
  | Some max_size -> Some { Matching.default_options with Matching.max_size }

let prop_match_oracle_random =
  QCheck.Test.make ~name:"matching = list reference (random circuits)" ~count:25
    Circuit_gen.arb
    (fun (seed, _, n_gates, depth) ->
      let c = Circuit_gen.circuit ~seed ~n_gates ~depth in
      let lib = L.create () in
      let rng = Ser_rng.Rng.create seed in
      let base = A.uniform lib c in
      (* a scrambled base: random variants, so the slews and the
         fallback cells differ from the nominal corner *)
      Array.iter
        (fun g ->
          let vs = Circuit_gen.variants_of lib c g in
          A.set base g vs.(Ser_rng.Rng.int rng (Array.length vs)))
        (Circuit_gen.non_inputs c);
      let t0 = T.analyze lib base in
      List.iter
        (fun ms ->
          check_match_oracle ~what:"random" ?options:(options_of ms) lib base
            (random_targets rng c t0))
        size_options;
      true)

let test_match_oracle_iscas () =
  List.iter
    (fun name ->
      let c = Ser_circuits.Iscas.load name in
      let lib = L.create () in
      let base = Opt.size_for_speed lib c in
      let t0 = T.analyze lib base in
      let rng = Ser_rng.Rng.create 7 in
      List.iter
        (fun ms ->
          for _ = 1 to 3 do
            check_match_oracle ~what:name ?options:(options_of ms) lib base
              (random_targets rng c t0)
          done)
        size_options)
    [ "c432"; "c880" ]

let check_sizing_oracle ~what ?max_size lib c =
  let want = reference_size_for_speed ?max_size lib c in
  let got = Opt.size_for_speed ?max_size lib c in
  Alcotest.(check bool) (what ^ ": same cells as the from-scratch reference")
    true (same_cells c want got);
  Alcotest.(check bool) (what ^ ": same critical-delay bits") true
    (same_bits (T.analyze lib want).T.critical_delay
       (T.analyze lib got).T.critical_delay)

let test_sizing_oracle () =
  let lib = L.create () in
  List.iter
    (fun seed ->
      let c =
        Circuit_gen.circuit ~seed ~n_gates:(20 + (seed * 7 mod 40))
          ~depth:(2 + (seed mod 5))
      in
      check_sizing_oracle ~what:(Printf.sprintf "random %d" seed) lib c;
      check_sizing_oracle ~what:(Printf.sprintf "random %d max 2" seed)
        ~max_size:2. lib c)
    [ 1; 2; 3; 5; 8; 13; 21; 34 ];
  List.iter
    (fun name ->
      let c = Ser_circuits.Iscas.load name in
      check_sizing_oracle ~what:name lib c;
      check_sizing_oracle ~what:(name ^ " small lib") (lib_small ()) c)
    [ "c432"; "c880" ]

(* ---------------- cost ---------------- *)

let m0 = { Cost.unreliability = 100.; delay = 500.; energy = 50.; area = 20. }

let test_cost_identity () =
  Alcotest.(check (float 1e-9)) "baseline cost = sum of weights"
    (1.0 +. 0.2 +. 0.15 +. 0.1)
    (Cost.eval ~baseline:m0 m0)

let test_cost_monotone () =
  let better = { m0 with Cost.unreliability = 50. } in
  let worse = { m0 with Cost.unreliability = 150. } in
  Alcotest.(check bool) "less U cheaper" true
    (Cost.eval ~baseline:m0 better < Cost.eval ~baseline:m0 m0);
  Alcotest.(check bool) "more U dearer" true
    (Cost.eval ~baseline:m0 worse > Cost.eval ~baseline:m0 m0)

let test_cost_delay_penalty () =
  let slight = { m0 with Cost.delay = 520. } in (* +4%, inside slack *)
  let violating = { m0 with Cost.delay = 600. } in (* +20% *)
  let c_slight = Cost.eval ~baseline:m0 slight -. Cost.eval ~baseline:m0 m0 in
  let c_viol = Cost.eval ~baseline:m0 violating -. Cost.eval ~baseline:m0 m0 in
  Alcotest.(check bool) "inside slack only the W2 term" true (c_slight < 0.05);
  Alcotest.(check bool) "violation heavily penalised" true (c_viol > 5.)

let test_cost_weights () =
  let w = { Cost.w_unrel = 0.; w_delay = 0.; w_energy = 1.; w_area = 0. } in
  let m = { m0 with Cost.energy = 100. } in
  Alcotest.(check (float 1e-9)) "pure energy ratio" 2.
    (Cost.eval ~weights:w ~baseline:m0 m)

let test_ratios () =
  let m = { Cost.unreliability = 50.; delay = 550.; energy = 100.; area = 40. } in
  let r = Cost.ratios ~baseline:m0 m in
  Alcotest.(check (float 1e-9)) "u" 0.5 r.Cost.unreliability;
  Alcotest.(check (float 1e-9)) "t" 1.1 r.Cost.delay;
  Alcotest.(check (float 1e-9)) "e" 2. r.Cost.energy;
  Alcotest.(check (float 1e-9)) "a" 2. r.Cost.area

(* ---------------- optimizer ---------------- *)

let test_size_for_speed () =
  let c = Ser_circuits.Iscas.load "c432" in
  let lib = lib_small () in
  let uniform = A.uniform lib c in
  let sized = Opt.size_for_speed lib c in
  let d_uniform = (T.analyze lib uniform).T.critical_delay in
  let d_sized = (T.analyze lib sized).T.critical_delay in
  Alcotest.(check bool)
    (Printf.sprintf "speed opt helps (%.1f -> %.1f)" d_uniform d_sized)
    true (d_sized < d_uniform)

let test_optimize_c432 () =
  let c = Ser_circuits.Iscas.load "c432" in
  let lib = lib_small () in
  let baseline = Opt.size_for_speed lib c in
  let config =
    {
      Opt.default_config with
      Opt.aserta = quick_aserta;
      max_evals = 40;
      greedy_passes = 1;
      greedy_gates = 80;
    }
  in
  let r = Opt.optimize ~config lib baseline in
  (* meaningful reduction with bounded delay increase *)
  Alcotest.(check bool)
    (Printf.sprintf "reduction %.1f%%" (100. *. Opt.unreliability_reduction r))
    true
    (Opt.unreliability_reduction r > 0.10);
  let ratios = Cost.ratios ~baseline:r.Opt.baseline_metrics r.Opt.optimized_metrics in
  Alcotest.(check bool)
    (Printf.sprintf "delay ratio %.2f" ratios.Cost.delay)
    true
    (ratios.Cost.delay < 1.10);
  (* the optimized assignment still satisfies the VDD ordering *)
  Alcotest.(check bool) "VDD ordering" true (vdd_ordering_ok c r.Opt.optimized);
  (* never worse than baseline by construction *)
  Alcotest.(check bool) "never worse" true
    (r.Opt.optimized_metrics.Cost.unreliability
     <= r.Opt.baseline_metrics.Cost.unreliability +. 1e-9)

let test_optimize_deterministic () =
  let c = Ser_circuits.Iscas.c17 () in
  let lib = lib_small () in
  let baseline = Opt.size_for_speed lib c in
  let config =
    { Opt.default_config with Opt.aserta = quick_aserta; max_evals = 20;
      greedy_passes = 1; greedy_gates = 6 }
  in
  let r1 = Opt.optimize ~config lib baseline in
  let r2 = Opt.optimize ~config lib baseline in
  Alcotest.(check (float 1e-12)) "same result"
    r1.Opt.optimized_metrics.Cost.unreliability
    r2.Opt.optimized_metrics.Cost.unreliability

let test_optimize_pure_nullspace () =
  (* the paper's pure method (no greedy) must at least not regress *)
  let c = Ser_circuits.Iscas.load "c432" in
  let lib = lib_small () in
  let baseline = Opt.size_for_speed lib c in
  let config =
    { Opt.default_config with Opt.aserta = quick_aserta; max_evals = 60;
      greedy_passes = 0 }
  in
  let r = Opt.optimize ~config lib baseline in
  Alcotest.(check bool) "no regression" true
    (r.Opt.optimized_metrics.Cost.unreliability
     <= r.Opt.baseline_metrics.Cost.unreliability +. 1e-9)

let test_replay_guard () =
  let c = Ser_circuits.Iscas.load "c432" in
  let lib = lib_small () in
  let baseline = Opt.size_for_speed lib c in
  let config =
    { Opt.default_config with Opt.aserta = quick_aserta; max_evals = 20;
      greedy_passes = 1; greedy_gates = 40; replay_guard = 25 }
  in
  let r = Opt.optimize ~config lib baseline in
  (* the guard must have made a choice *)
  (match r.Opt.guard_choice with
  | Some ("greedy" | "search" | "baseline") -> ()
  | Some other -> Alcotest.failf "unexpected choice %S" other
  | None -> Alcotest.fail "guard disabled?");
  (* and the chosen circuit must not be worse than baseline under the
     replay metric the guard used *)
  let u asg = Aserta.Measured.unreliability ~vectors:25 lib asg in
  Alcotest.(check bool) "replay no worse than baseline" true
    (u r.Opt.optimized <= u r.Opt.baseline +. 1e-9);
  (* without the guard the field is None *)
  let r0 =
    Opt.optimize
      ~config:{ config with Opt.replay_guard = 0; max_evals = 5; greedy_passes = 0 }
      lib baseline
  in
  Alcotest.(check bool) "no guard no choice" true (r0.Opt.guard_choice = None)

(* ---------------- budgets, degradation, checkpoints ---------------- *)

let tiny_config =
  lazy
    {
      Opt.default_config with
      Opt.aserta = { quick_aserta with Aserta.Analysis.vectors = 300 };
      max_evals = 10;
      greedy_passes = 1;
      greedy_gates = 4;
    }

let test_optimize_tiny_budget () =
  (* one evaluation and one second: must return the baseline, flagged
     degraded, without hanging or raising *)
  let c = Ser_circuits.Iscas.c17 () in
  let lib = lib_small () in
  let baseline = Opt.size_for_speed lib c in
  let budget = Ser_util.Budget.create ~max_evals:1 ~max_seconds:1. () in
  let r = Opt.optimize ~config:(Lazy.force tiny_config) ~budget lib baseline in
  Alcotest.(check bool) "degraded" true r.Opt.degraded;
  Alcotest.(check bool) "returns the baseline" true (r.Opt.optimized == baseline);
  Alcotest.(check bool) "timing feasible (VDD ordering)" true
    (vdd_ordering_ok c r.Opt.optimized);
  Alcotest.(check bool) "metrics are the baseline's" true
    (r.Opt.optimized_metrics.Cost.unreliability
     = r.Opt.baseline_metrics.Cost.unreliability)

let test_optimize_partial_budget () =
  (* a budget that covers the baseline plus a few search evals: still a
     valid, never-worse result, flagged degraded *)
  let c = Ser_circuits.Iscas.c17 () in
  let lib = lib_small () in
  let baseline = Opt.size_for_speed lib c in
  let budget = Ser_util.Budget.create ~max_evals:4 () in
  let r = Opt.optimize ~config:(Lazy.force tiny_config) ~budget lib baseline in
  Alcotest.(check bool) "degraded" true r.Opt.degraded;
  Alcotest.(check bool) "never worse" true
    (r.Opt.optimized_metrics.Cost.unreliability
     <= r.Opt.baseline_metrics.Cost.unreliability +. 1e-9);
  Alcotest.(check bool) "VDD ordering" true (vdd_ordering_ok c r.Opt.optimized)

let test_optimize_no_budget_not_degraded () =
  let c = Ser_circuits.Iscas.c17 () in
  let lib = lib_small () in
  let baseline = Opt.size_for_speed lib c in
  let r = Opt.optimize ~config:(Lazy.force tiny_config) lib baseline in
  Alcotest.(check bool) "not degraded" false r.Opt.degraded

let test_checkpoint_roundtrip () =
  let c = Ser_circuits.Iscas.c17 () in
  let lib = lib_small () in
  let baseline = Opt.size_for_speed lib c in
  let r = Opt.optimize ~config:(Lazy.force tiny_config) lib baseline in
  let path = Filename.temp_file "ser_ckpt" ".json" in
  (match Sertopt.Checkpoint.save path ~cost:1.25 ~evals:r.Opt.evals r.Opt.optimized with
  | Ok () -> ()
  | Error d -> Alcotest.fail (Ser_util.Diag.to_string d));
  (match Sertopt.Checkpoint.restore path ~base:baseline with
  | Error d -> Alcotest.fail (Ser_util.Diag.to_string d)
  | Ok ck ->
    Alcotest.(check string) "circuit name" c.Circuit.name ck.Sertopt.Checkpoint.circuit;
    Alcotest.(check (option (float 1e-12))) "cost" (Some 1.25)
      ck.Sertopt.Checkpoint.cost;
    Alcotest.(check int) "evals" r.Opt.evals ck.Sertopt.Checkpoint.evals;
    A.fold_gates r.Opt.optimized ~init:() ~f:(fun () id cell ->
        Alcotest.(check bool)
          (Printf.sprintf "gate %d cell preserved" id)
          true
          (P.equal cell (A.get ck.Sertopt.Checkpoint.assignment id))));
  Sys.remove path

let test_checkpoint_rejects_garbage () =
  let c = Ser_circuits.Iscas.c17 () in
  let lib = lib_small () in
  let base = A.uniform lib c in
  let check_err text =
    let path = Filename.temp_file "ser_ckpt" ".json" in
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    (match Sertopt.Checkpoint.restore path ~base with
    | Ok _ -> Alcotest.failf "garbage accepted: %s" text
    | Error d ->
      Alcotest.(check bool)
        (Printf.sprintf "file context present for %s" text)
        true
        (Ser_util.Diag.context_value d "file" <> None));
    Sys.remove path
  in
  check_err "not json at all";
  check_err "{}";
  check_err {|{"circuit": "other", "gates": []}|};
  check_err {|{"circuit": "c17", "gates": [{"name": "nope", "kind": "NAND", "fanin": 2, "size": 1, "length": 70, "vdd": 1.0, "vth": 0.2}]}|};
  check_err {|{"circuit": "c17", "gates": [{"name": "G10", "kind": "NAND", "fanin": 2, "size": -4, "length": 70, "vdd": 1.0, "vth": 0.2}]}|};
  (* missing file *)
  match Sertopt.Checkpoint.restore "/nonexistent/ckpt.json" ~base with
  | Ok _ -> Alcotest.fail "missing file accepted"
  | Error _ -> ()

(* restore reads through a file, so each document takes the real path *)
let checkpoint_restore_total_prop =
  let c = Ser_circuits.Iscas.c17 () in
  let base = A.uniform (lib_small ()) c in
  Json_gen.total_prop ~name:"restore is total"
    ~valid:[ Sertopt.Checkpoint.to_json ~cost:1.5 ~evals:3 base ]
    (fun j ->
      let path = Filename.temp_file "ser_ckpt" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          match Ser_util.Json.to_file path j with
          | Error msg -> Alcotest.failf "write: %s" msg
          | Ok () -> Sertopt.Checkpoint.restore path ~base))

let test_optimize_resume_from_checkpoint () =
  (* a checkpointed incumbent seeds the search: the resumed run must do
     at least as well as the incumbent *)
  let c = Ser_circuits.Iscas.c17 () in
  let lib = lib_small () in
  let baseline = Opt.size_for_speed lib c in
  let first = Opt.optimize ~config:(Lazy.force tiny_config) lib baseline in
  let path = Filename.temp_file "ser_ckpt" ".json" in
  (match Sertopt.Checkpoint.save path first.Opt.optimized with
  | Ok () -> ()
  | Error d -> Alcotest.fail (Ser_util.Diag.to_string d));
  let incumbent =
    match Sertopt.Checkpoint.restore path ~base:baseline with
    | Ok ck -> ck.Sertopt.Checkpoint.assignment
    | Error d -> Alcotest.fail (Ser_util.Diag.to_string d)
  in
  Sys.remove path;
  (* resume under a small budget: baseline measure + incumbent measure fit *)
  let budget = Ser_util.Budget.create ~max_evals:3 () in
  let r =
    Opt.optimize ~config:(Lazy.force tiny_config) ~budget ~initial:incumbent
      lib baseline
  in
  Alcotest.(check bool) "no worse than incumbent" true
    (r.Opt.optimized_metrics.Cost.unreliability
     <= first.Opt.optimized_metrics.Cost.unreliability +. 1e-9);
  (* a foreign incumbent is rejected loudly *)
  let other = Ser_circuits.Iscas.load "c432" in
  let foreign = A.uniform lib other in
  (try
     ignore (Opt.optimize ~config:(Lazy.force tiny_config) ~initial:foreign lib baseline);
     Alcotest.fail "foreign incumbent accepted"
   with Invalid_argument _ -> ())

let test_handler_resume_sizes_once () =
  (* the CLI path: the checkpoint is restored onto the baseline that
     Handlers.optimize sizes, so a resumed run is accepted (the
     incumbent belongs to that baseline's circuit) and sizes exactly
     as often as a fresh run *)
  let module Request = Ser_cli.Request in
  let module Handlers = Ser_cli.Handlers in
  let module Metrics = Ser_obs.Obs.Metrics in
  let req =
    {
      (Request.defaults Request.Optimize (Request.Spec "c17")) with
      Request.vectors = 300;
      evals = 4;
      greedy = 0;
    }
  in
  let trials () =
    match Metrics.find_counter "sta.sizing_trials" with
    | Some ctr -> Metrics.value ctr
    | None -> 0
  in
  let run ?initial () =
    let t0 = trials () in
    match
      Result.bind (Handlers.prepare req) (Handlers.optimize ?initial req)
    with
    | Ok r -> (r, trials () - t0)
    | Error d -> Alcotest.fail (Ser_util.Diag.to_string d)
  in
  let first, fresh_trials = run () in
  let path = Filename.temp_file "ser_ckpt" ".json" in
  (match Sertopt.Checkpoint.save path first.Opt.optimized with
  | Ok () -> ()
  | Error d -> Alcotest.fail (Ser_util.Diag.to_string d));
  let restore base =
    match Sertopt.Checkpoint.restore path ~base with
    | Ok ck -> ck.Sertopt.Checkpoint.assignment
    | Error d -> Alcotest.fail (Ser_util.Diag.to_string d)
  in
  let resumed, resumed_trials =
    Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
        run ~initial:restore ())
  in
  Alcotest.(check bool) "sizing ran" true (fresh_trials > 0);
  Alcotest.(check int) "one sizing per run" fresh_trials resumed_trials;
  Alcotest.(check bool) "no worse than incumbent" true
    (resumed.Opt.optimized_metrics.Cost.unreliability
     <= first.Opt.optimized_metrics.Cost.unreliability +. 1e-9)

let test_masking_override () =
  let c = Ser_circuits.Iscas.c17 () in
  let lib = lib_small () in
  let baseline = Opt.size_for_speed lib c in
  let masking = Aserta.Analysis.compute_masking quick_aserta c in
  let config =
    { Opt.default_config with Opt.aserta = quick_aserta; max_evals = 10;
      greedy_passes = 0 }
  in
  let a = Opt.optimize ~config ~masking lib baseline in
  let b = Opt.optimize ~config lib baseline in
  Alcotest.(check (float 1e-12)) "masking reuse equivalent"
    a.Opt.baseline_metrics.Cost.unreliability
    b.Opt.baseline_metrics.Cost.unreliability

(* ------------------------- menu sampling ------------------------- *)

let test_sample_menu () =
  let id_list n = List.init n (fun i -> i) in
  (* under the cap: unchanged *)
  Alcotest.(check (list int)) "short list unchanged" (id_list 5)
    (Opt.sample_menu ~cap:24 (id_list 5));
  Alcotest.(check (list int)) "exact cap unchanged" (id_list 24)
    (Opt.sample_menu ~cap:24 (id_list 24));
  (* over the cap: exactly [cap] elements (the old stride sampling kept
     13 of 25 for cap 24), strictly increasing, first element kept *)
  for len = 25 to 60 do
    let out = Opt.sample_menu ~cap:24 (id_list len) in
    Alcotest.(check int)
      (Printf.sprintf "exact count for len %d" len)
      24 (List.length out);
    Alcotest.(check bool)
      (Printf.sprintf "sorted, distinct, in range for len %d" len)
      true
      (List.for_all (fun x -> x >= 0 && x < len) out
      && List.sort_uniq compare out = out);
    Alcotest.(check int) "keeps the head" 0 (List.hd out)
  done;
  (* deterministic *)
  Alcotest.(check (list int)) "deterministic"
    (Opt.sample_menu ~cap:7 (id_list 100))
    (Opt.sample_menu ~cap:7 (id_list 100));
  Alcotest.check_raises "cap <= 0 rejected"
    (Invalid_argument "Optimizer.sample_menu: cap must be positive") (fun () ->
      ignore (Opt.sample_menu ~cap:0 (id_list 3)))

let () =
  Alcotest.run "sertopt"
    [
      ( "matching",
        [
          Alcotest.test_case "identity targets" `Quick test_match_identity;
          Alcotest.test_case "VDD ordering" `Slow test_match_vdd_ordering;
          Alcotest.test_case "slower targets" `Quick test_match_slower_targets;
          Alcotest.test_case "max size" `Quick test_match_max_size;
          QCheck_alcotest.to_alcotest prop_match_oracle_random;
          Alcotest.test_case "list reference on c432/c880" `Slow
            test_match_oracle_iscas;
        ] );
      ( "cost",
        [
          Alcotest.test_case "identity" `Quick test_cost_identity;
          Alcotest.test_case "monotone in U" `Quick test_cost_monotone;
          Alcotest.test_case "delay penalty" `Quick test_cost_delay_penalty;
          Alcotest.test_case "weights" `Quick test_cost_weights;
          Alcotest.test_case "ratios" `Quick test_ratios;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "size_for_speed" `Quick test_size_for_speed;
          Alcotest.test_case "c432 improves" `Slow test_optimize_c432;
          Alcotest.test_case "deterministic" `Slow test_optimize_deterministic;
          Alcotest.test_case "pure nullspace no regression" `Slow test_optimize_pure_nullspace;
          Alcotest.test_case "replay guard" `Slow test_replay_guard;
          Alcotest.test_case "masking override" `Quick test_masking_override;
          Alcotest.test_case "menu sampling" `Quick test_sample_menu;
          Alcotest.test_case "size_for_speed = from-scratch" `Slow
            test_sizing_oracle;
        ] );
      ( "budgets and checkpoints",
        [
          Alcotest.test_case "tiny budget degrades to baseline" `Quick
            test_optimize_tiny_budget;
          Alcotest.test_case "partial budget" `Quick test_optimize_partial_budget;
          Alcotest.test_case "no budget not degraded" `Quick
            test_optimize_no_budget_not_degraded;
          Alcotest.test_case "checkpoint round trip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "checkpoint rejects garbage" `Quick
            test_checkpoint_rejects_garbage;
          QCheck_alcotest.to_alcotest checkpoint_restore_total_prop;
          Alcotest.test_case "resume from checkpoint" `Quick
            test_optimize_resume_from_checkpoint;
          Alcotest.test_case "handler resume sizes once" `Quick
            test_handler_resume_sizes_once;
        ] );
    ]
