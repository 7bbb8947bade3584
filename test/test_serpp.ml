module Serpp = Ser_serpp.Serpp
module Serpp_incr = Ser_serpp.Serpp_incr
module Xval = Ser_repro.Xval
module Circuit = Ser_netlist.Circuit
module Bench = Ser_netlist.Bench_format
module L = Ser_cell.Library
module Request = Ser_cli.Request
module Json = Ser_util.Json
module Assignment = Ser_sta.Assignment
module Timing = Ser_sta.Timing
module Probs = Ser_logicsim.Probs
module Cell_params = Ser_device.Cell_params

let lib = lazy (L.create ())

let sized circuit =
  let l = Lazy.force lib in
  (l, Sertopt.Optimizer.size_for_speed l circuit)

let sized_bench name = sized (Ser_circuits.Iscas.load name)

(* relative closeness: declaration order is only guaranteed invariant
   up to float-rounding noise in the shared STA pass *)
let rel_close a b =
  Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

(* ------------------------- directed runs -------------------------- *)

let test_run_basic () =
  let l, asg = sized_bench "c17" in
  let t = Serpp.run l asg in
  Alcotest.(check bool) "total positive" true (t.Serpp.total > 0.);
  Alcotest.(check bool) "total finite" true (Float.is_finite t.Serpp.total);
  let c = t.Serpp.circuit in
  let sum = ref 0. in
  Array.iteri
    (fun id u ->
      sum := !sum +. u;
      if Circuit.is_input c id then
        Alcotest.(check (float 0.)) "PI contributes nothing" 0. u)
    t.Serpp.estimate;
  Alcotest.(check (float 1e-9)) "total is the per-gate sum" t.Serpp.total !sum

let test_deterministic () =
  let l, asg = sized_bench "c432" in
  let t1 = Serpp.run l asg and t2 = Serpp.run l asg in
  Alcotest.(check bool) "totals bit-identical" true
    (Int64.equal (Int64.bits_of_float t1.Serpp.total)
       (Int64.bits_of_float t2.Serpp.total));
  Alcotest.(check bool) "per-gate bit-identical" true
    (Array.for_all2
       (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
       t1.Serpp.estimate t2.Serpp.estimate)

let test_checked_rejects_bad_config () =
  let l, asg = sized_bench "c17" in
  let expect_error label config =
    match Serpp.run_checked ~config l asg with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" label
  in
  expect_error "negative charge"
    { Serpp.default_config with Serpp.charge = -1. };
  expect_error "one sample" { Serpp.default_config with Serpp.n_samples = 1 };
  expect_error "non-finite sample ceiling"
    { Serpp.default_config with Serpp.max_sample_width = Float.nan };
  expect_error "non-positive latch window"
    { Serpp.default_config with Serpp.latch_window = Some 0. };
  match Serpp.run_checked l asg with
  | Ok t -> Alcotest.(check bool) "default config passes" true (t.Serpp.total > 0.)
  | Error d -> Alcotest.failf "default config rejected: %s" (Ser_util.Diag.to_string d)

let test_latch_window_derates () =
  let l, asg = sized_bench "c432" in
  let full = Serpp.run l asg in
  let derated =
    Serpp.run
      ~config:{ Serpp.default_config with Serpp.latch_window = Some 20. }
      l asg
  in
  Alcotest.(check bool) "derated total below full-width total" true
    (derated.Serpp.total < full.Serpp.total);
  Alcotest.(check bool) "derated cap below full cap" true
    (derated.Serpp.profile_cap < full.Serpp.profile_cap)

(* ------------------ reference profiles (bit for bit) ---------------- *)

let bits = Int64.bits_of_float
let same_arr a b =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> bits x = bits y) a b

(* The per-sample profile recurrence as first written: attenuate every
   sample through each successor's delay with [Glitch.propagate] and
   interpolate the successor's profile with [Lut.interpolate_1d]. The
   bracket kernel ([Serpp.profile_row]) must reproduce it bit for bit. *)
let reference_profiles (t : Serpp.t) =
  let config = t.Serpp.config and c = t.Serpp.circuit in
  let ws = t.Serpp.samples and probs = t.Serpp.probs in
  let delays = t.Serpp.timing.Timing.delays in
  let n = Circuit.node_count c in
  let n_samples = Array.length ws in
  let cap =
    match config.Serpp.latch_window with
    | None -> config.Serpp.max_sample_width
    | Some w -> Float.min w config.Serpp.max_sample_width
  in
  let successors_by_name id =
    List.sort_uniq
      (fun a b ->
        String.compare (Circuit.node c a).Circuit.name
          (Circuit.node c b).Circuit.name)
      (Array.to_list (Circuit.node c id).Circuit.fanout)
  in
  let profiles = Array.make n [||] in
  for id = n - 1 downto 0 do
    if not (Circuit.is_input c id) then
      if Circuit.is_output c id then
        profiles.(id) <- Array.map (fun w -> Float.min w cap) ws
      else begin
        let row = Array.make n_samples 0. in
        List.iter
          (fun s ->
            let sens = Probs.sensitization_to_driver c ~probs ~gate:s ~driver:id in
            if sens > 0. then
              for k = 0 to n_samples - 1 do
                let wo = Aserta.Glitch.propagate ~delay:delays.(s) ~width:ws.(k) in
                if wo > 0. then
                  row.(k) <-
                    row.(k)
                    +. (sens
                       *. Ser_table.Lut.interpolate_1d ~xs:ws ~ys:profiles.(s) wo)
              done)
          (successors_by_name id);
        for k = 0 to n_samples - 1 do
          if row.(k) > t.Serpp.profile_cap then row.(k) <- t.Serpp.profile_cap
        done;
        profiles.(id) <- row
      end
  done;
  profiles

let profiles_match t = Array.for_all2 same_arr (reference_profiles t) t.Serpp.profiles

let test_kernel_matches_reference () =
  List.iter
    (fun (name, config) ->
      let l, asg = sized_bench name in
      Alcotest.(check bool)
        (name ^ " profiles bit-equal to the per-sample loop")
        true
        (profiles_match (Serpp.run ~config l asg)))
    [
      ("c17", Serpp.default_config);
      ("c432", Serpp.default_config);
      ("c432", { Serpp.default_config with Serpp.latch_window = Some 20. });
      ("c880", { Serpp.default_config with Serpp.n_samples = 7; charge = 30. });
    ]

(* ------------------------ incremental handle ------------------------ *)

(* Everything the tier ranking reads from a handle, bit-compared with a
   from-scratch run of the same assignment. *)
let handle_matches_scratch lib asg h =
  let r = Serpp.run lib asg in
  let n = Circuit.node_count r.Serpp.circuit in
  let m = Serpp_incr.metrics h in
  let energy =
    Timing.total_energy ~env:r.Serpp.config.Serpp.env ~timing:r.Serpp.timing
      lib asg
  in
  same_arr r.Serpp.estimate (Array.init n (Serpp_incr.estimate h))
  && bits r.Serpp.total = bits (Serpp_incr.total h)
  && bits r.Serpp.total = bits m.Ser_sta.Incr_sta.m_unreliability
  && bits r.Serpp.timing.Timing.critical_delay = bits m.Ser_sta.Incr_sta.m_delay
  && bits energy = bits m.Ser_sta.Incr_sta.m_energy
  && bits (Assignment.total_area lib asg) = bits m.Ser_sta.Incr_sta.m_area
  && Array.for_all2 same_arr r.Serpp.profiles (Array.init n (Serpp_incr.profile h))
  && profiles_match r

(* Random set_cell / sync / fork sequences on random circuits: after
   every step the handle is bit-equal to Serpp.run + Timing.total_energy
   + Assignment.total_area on the same assignment. Syncs move up to half
   the gates, so the from-scratch rebuild path is exercised too; a fork
   step continues on the fork and the abandoned parent must still match
   its own assignment at the end. *)
let incremental_equals_scratch_prop =
  QCheck.Test.make ~count:15
    ~name:"serpp handle = from-scratch after random set_cell/sync/fork"
    Circuit_gen.arb
    (fun (seed, n_ops, n_gates, depth) ->
      let c = Circuit_gen.circuit ~seed ~n_gates ~depth in
      let lib = Lazy.force lib in
      let asg = ref (Assignment.uniform lib c) in
      let h = ref (Serpp_incr.of_run lib !asg (Serpp.run lib !asg)) in
      let parents = ref [] in
      let rng = Ser_rng.Rng.create (seed + 29) in
      let gates = Circuit_gen.non_inputs c in
      let ok = ref (handle_matches_scratch lib !asg !h) in
      for _ = 1 to 2 * n_ops do
        (match Ser_rng.Rng.int rng 3 with
        | 0 ->
          let g, cand = Circuit_gen.random_move rng lib c gates in
          Assignment.set !asg g cand;
          Serpp_incr.set_cell !h g cand
        | 1 ->
          let target = Assignment.copy !asg in
          for _ = 1 to 1 + Ser_rng.Rng.int rng (1 + (Array.length gates / 2)) do
            let g, cand = Circuit_gen.random_move rng lib c gates in
            Assignment.set target g cand
          done;
          Serpp_incr.sync !h target;
          asg := target
        | _ ->
          parents := (Assignment.copy !asg, !h) :: !parents;
          asg := Assignment.copy !asg;
          h := Serpp_incr.fork !h);
        ok := !ok && handle_matches_scratch lib !asg !h
      done;
      !ok
      && List.for_all (fun (a, p) -> handle_matches_scratch lib a p) !parents)

let test_fork_isolation () =
  let l, asg = sized_bench "c432" in
  let h = Serpp_incr.of_run l asg (Serpp.run l asg) in
  let before = Serpp_incr.metrics h in
  let g = (Circuit_gen.non_inputs (Assignment.circuit asg)).(7) in
  let other =
    Array.to_list (Circuit_gen.variants_of l (Assignment.circuit asg) g)
    |> List.find (fun p -> not (Cell_params.equal p (Assignment.get asg g)))
  in
  let f = Serpp_incr.fork h in
  Serpp_incr.set_cell f g other;
  let after = Serpp_incr.metrics h in
  Alcotest.(check bool) "parent untouched by fork mutation" true
    (bits before.Ser_sta.Incr_sta.m_unreliability
     = bits after.Ser_sta.Incr_sta.m_unreliability
    && bits before.Ser_sta.Incr_sta.m_delay = bits after.Ser_sta.Incr_sta.m_delay
    && bits before.Ser_sta.Incr_sta.m_energy = bits after.Ser_sta.Incr_sta.m_energy
    && bits before.Ser_sta.Incr_sta.m_area = bits after.Ser_sta.Incr_sta.m_area);
  Alcotest.(check bool) "parent still equals scratch" true
    (handle_matches_scratch l asg h);
  let fasg = Assignment.copy asg in
  Assignment.set fasg g other;
  Alcotest.(check bool) "fork equals scratch on its own assignment" true
    (handle_matches_scratch l fasg f);
  let st = Serpp_incr.stats f in
  Alcotest.(check bool) "a one-gate move re-runs a cone, not the circuit" true
    (st.Serpp_incr.updates = 1 && st.Serpp_incr.full_rebuilds = 0
    && st.Serpp_incr.rows_recomputed < Circuit.gate_count (Assignment.circuit asg))

(* ------------------------- qcheck properties ----------------------- *)

let bounded_prop =
  QCheck.Test.make ~count:20
    ~name:"serpp estimates finite and within [0, gate bound]"
    QCheck.(float_range 4. 40.)
    (fun charge ->
      let l, asg = sized_bench "c17" in
      let t =
        Serpp.run ~config:{ Serpp.default_config with Serpp.charge } l asg
      in
      let n = Array.length t.Serpp.estimate in
      Float.is_finite t.Serpp.total
      && t.Serpp.total >= 0.
      && List.for_all
           (fun id ->
             let u = t.Serpp.estimate.(id) in
             Float.is_finite u && u >= 0.
             && u <= Serpp.gate_bound t id +. 1e-9)
           (List.init n Fun.id))

let c17_text = lazy (Bench.to_string (Ser_circuits.Iscas.load "c17"))

let shuffle_lines seed text =
  let lines =
    List.filter (fun l -> String.trim l <> "")
      (String.split_on_char '\n' text)
  in
  let a = Array.of_list lines in
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  String.concat "\n" (Array.to_list a) ^ "\n"

let estimates_by_name t =
  let c = t.Serpp.circuit in
  List.init (Array.length t.Serpp.estimate) (fun id ->
      ((Circuit.node c id).Circuit.name, t.Serpp.estimate.(id)))
  |> List.sort compare

let order_invariance_prop =
  QCheck.Test.make ~count:30
    ~name:"estimates invariant under gate declaration order"
    QCheck.small_int
    (fun seed ->
      let text = Lazy.force c17_text in
      match
        (Bench.parse_string text, Bench.parse_string (shuffle_lines seed text))
      with
      | Ok c1, Ok c2 ->
        let l1, a1 = sized c1 and l2, a2 = sized c2 in
        let t1 = Serpp.run l1 a1 and t2 = Serpp.run l2 a2 in
        rel_close t1.Serpp.total t2.Serpp.total
        && List.for_all2
             (fun (n1, u1) (n2, u2) -> n1 = n2 && rel_close u1 u2)
             (estimates_by_name t1) (estimates_by_name t2)
      | _ -> QCheck.Test.fail_report "shuffled c17 no longer parses")

(* --------------------- cross-validation floors --------------------- *)

let test_xval_c432 () =
  let r = Xval.run ~circuit:"c432" ~vectors:2000 () in
  Alcotest.(check bool)
    (Printf.sprintf "c432 pearson %.3f >= 0.95" r.Xval.pearson)
    true (r.Xval.pearson >= 0.95);
  Alcotest.(check bool)
    (Printf.sprintf "c432 top-10 overlap %d >= 7" r.Xval.top_overlap)
    true (r.Xval.top_overlap >= 7)

let test_xval_c880 () =
  let r = Xval.run ~circuit:"c880" ~vectors:2000 () in
  Alcotest.(check bool)
    (Printf.sprintf "c880 pearson %.3f >= 0.9" r.Xval.pearson)
    true (r.Xval.pearson >= 0.9);
  Alcotest.(check bool)
    (Printf.sprintf "c880 top-10 overlap %d >= 5" r.Xval.top_overlap)
    true (r.Xval.top_overlap >= 5)

let test_xval_json_stable () =
  let r = Xval.run ~circuit:"c17" ~vectors:500 () in
  let r' = Xval.run ~circuit:"c17" ~vectors:500 () in
  Alcotest.(check string) "xval JSON deterministic"
    (Json.to_string (Xval.to_json r))
    (Json.to_string (Xval.to_json r'))

(* ----------------------- tiered optimization ----------------------- *)

let tier_config =
  {
    Sertopt.Optimizer.default_config with
    Sertopt.Optimizer.aserta =
      { Aserta.Analysis.default_config with Aserta.Analysis.vectors = 400; seed = 5 };
    max_evals = 6;
    greedy_passes = 1;
    greedy_gates = 4;
    annealing_steps = 0;
    replay_guard = 0;
  }

let test_tiered_optimizer () =
  let l, baseline = sized_bench "c432" in
  let exact = Sertopt.Optimizer.optimize ~config:tier_config l baseline in
  let tiered =
    Sertopt.Optimizer.optimize
      ~config:
        { tier_config with Sertopt.Optimizer.tier = Sertopt.Optimizer.Serpp_prefilter 2 }
      l baseline
  in
  (* tiering spends strictly fewer exact evaluations... *)
  Alcotest.(check bool)
    (Printf.sprintf "tiered evals %d < exact evals %d"
       tiered.Sertopt.Optimizer.evals exact.Sertopt.Optimizer.evals)
    true (tiered.Sertopt.Optimizer.evals < exact.Sertopt.Optimizer.evals);
  (* ...while still only accepting exact-measured improvements *)
  let u_of (r : Sertopt.Optimizer.result) =
    r.Sertopt.Optimizer.optimized_metrics.Sertopt.Cost.unreliability
  in
  let u_base =
    tiered.Sertopt.Optimizer.baseline_metrics.Sertopt.Cost.unreliability
  in
  Alcotest.(check bool) "tiered result does not regress the baseline" true
    (u_of tiered <= u_base +. 1e-9);
  Alcotest.(check bool) "tiered result finite" true
    (Float.is_finite (u_of tiered))

(* --------------------- request-level contract ---------------------- *)

let test_request_backend_codec () =
  let req =
    Request.make ~backend:"serpp" Request.Analyze (Request.Spec "c17")
  in
  (match Request.of_json (Request.to_json req) with
  | Ok r -> Alcotest.(check string) "backend round-trips" "serpp" r.Request.backend
  | Error d -> Alcotest.failf "round-trip failed: %s" (Ser_util.Diag.to_string d));
  (* the backend is part of the analyze cache identity *)
  (match Json.member "backend" (Request.params_json req) with
  | Some (Json.Str "serpp") -> ()
  | _ -> Alcotest.fail "params_json must carry the backend");
  (* rate needs ASERTA's per-output tables *)
  let rate = { req with Request.op = Request.Rate } in
  (match Request.of_json (Request.to_json rate) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "rate with serpp backend accepted");
  (* unknown backends and tiers are typed errors, not silent defaults *)
  let patch name v =
    match Request.to_json req with
    | Json.Obj fields ->
      Json.Obj (List.map (fun (k, x) -> if k = name then (k, v) else (k, x)) fields)
    | j -> j
  in
  match Request.of_json (patch "backend" (Json.Str "exotic")) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown backend accepted"

let test_request_tier_codec () =
  let req =
    Request.make ~eval_tier:"serpp" ~tier_k:3 Request.Optimize
      (Request.Spec "c17")
  in
  (match Request.of_json (Request.to_json req) with
  | Ok r ->
    Alcotest.(check string) "eval_tier round-trips" "serpp" r.Request.eval_tier;
    Alcotest.(check int) "tier_k round-trips" 3 r.Request.tier_k
  | Error d -> Alcotest.failf "round-trip failed: %s" (Ser_util.Diag.to_string d));
  let params = Request.params_json req in
  (match (Json.member "eval_tier" params, Json.member "tier_k" params) with
  | Some (Json.Str "serpp"), Some tk when Json.to_int_opt tk = Some 3 -> ()
  | _ -> Alcotest.fail "params_json must carry eval_tier and tier_k");
  (match
     Request.of_json
       (Request.to_json { req with Request.tier_k = 0 })
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tier_k 0 accepted");
  (* the flag path (Request.make) runs the same check and fails typed *)
  List.iter
    (fun k ->
      match
        Request.make ~eval_tier:"serpp" ~tier_k:k Request.Optimize
          (Request.Spec "c17")
      with
      | exception Ser_util.Diag.Diag_error d ->
        Alcotest.(check string) "typed cli diagnostic" "cli"
          d.Ser_util.Diag.subsystem
      | _ -> Alcotest.failf "Request.make accepted tier_k %d" k)
    [ 0; -3 ];
  (* and the optimizer no longer clamps a bad k to 1 *)
  let l, asg = sized_bench "c17" in
  match
    Sertopt.Optimizer.optimize
      ~config:
        { tier_config with Sertopt.Optimizer.tier = Sertopt.Optimizer.Serpp_prefilter 0 }
      l asg
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "optimizer accepted tier k 0"

let () =
  Alcotest.run "serpp"
    [
      ( "estimator",
        [
          Alcotest.test_case "run basics" `Quick test_run_basic;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "checked config" `Quick
            test_checked_rejects_bad_config;
          Alcotest.test_case "latch window derates" `Quick
            test_latch_window_derates;
          QCheck_alcotest.to_alcotest bounded_prop;
          QCheck_alcotest.to_alcotest order_invariance_prop;
          Alcotest.test_case "kernel matches per-sample loop" `Quick
            test_kernel_matches_reference;
        ] );
      ( "handle",
        [
          Alcotest.test_case "fork isolation" `Quick test_fork_isolation;
          QCheck_alcotest.to_alcotest incremental_equals_scratch_prop;
        ] );
      ( "xval",
        [
          Alcotest.test_case "c432 floors" `Quick test_xval_c432;
          Alcotest.test_case "c880 floors" `Slow test_xval_c880;
          Alcotest.test_case "json stable" `Quick test_xval_json_stable;
        ] );
      ( "tiered",
        [ Alcotest.test_case "prefilter saves exact evals" `Slow test_tiered_optimizer ] );
      ( "request",
        [
          Alcotest.test_case "backend codec" `Quick test_request_backend_codec;
          Alcotest.test_case "tier codec" `Quick test_request_tier_codec;
        ] );
    ]
